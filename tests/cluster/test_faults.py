"""Fault schedule construction and injection."""

import pytest

from repro.cluster.faults import FaultSchedule, inject_faults
from repro.cluster.presets import paper_network
from repro.util.errors import ClusterError


class TestFaultSchedule:
    def test_add_and_query(self):
        s = FaultSchedule({"ws01": 2.0})
        s.add("ws02", 3.0)
        assert s.fail_time("ws01") == 2.0
        assert s.fail_time("ws02") == 3.0
        assert s.fail_time("ws03") is None
        assert len(s) == 2

    def test_negative_time_rejected(self):
        with pytest.raises(ClusterError):
            FaultSchedule({"x": -1.0})


class TestInjectFaults:
    def test_sets_fail_at(self):
        cluster = paper_network()
        inject_faults(cluster, FaultSchedule({"ws03": 1.5}))
        assert cluster.machine("ws03").fail_at == 1.5
        assert cluster.machine("ws04").fail_at is None

    def test_unknown_machine_rejected(self):
        with pytest.raises(ClusterError):
            inject_faults(paper_network(), FaultSchedule({"nope": 1.0}))

