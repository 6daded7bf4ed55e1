"""Runaway schemes get a typed answer in well under a second, on every path.

Two models stand for the two ways a scheme can fail to end:

- ``fixtures/self_assign_step.pmdl`` — ``for (i = 0; i < p; i = i)``; the
  analyzer proves it never ends (PM033), so it is refused before anything
  unrolls it;
- ``fixtures/runaway/step_budget.pmdl`` — the step is read from a bound
  array, so no static rule can refute it.  The net lowering stops at its
  event cap (PM084) and every walk at the executor's step budget
  (:data:`~repro.perfmodel.interp.STEP_BUDGET`).
"""

import time
from pathlib import Path

import pytest

from repro.cluster import paper_network
from repro.core import NetworkModel, estimate_time
from repro.perfmodel import check_source, compile_model
from repro.perfmodel.interp import STEP_BUDGET
from repro.perfmodel.net import MAX_NET_EVENTS, NetTooLarge, lower_model
from repro.perfmodel.netcheck import check_model_net
from repro.serve import Executor, validate_request
from repro.serve.protocol import BadRequest
from repro.util.errors import PMDLAnalysisError, PMDLRuntimeError

FIXTURES = Path(__file__).parent / "fixtures"
SELF_ASSIGN = (FIXTURES / "self_assign_step.pmdl").read_text()
STEP_BUDGET_MODEL = (FIXTURES / "runaway" / "step_budget.pmdl").read_text()
DEADLINE = 1.0


class _Clock:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        return False


class TestRefusedBeforeUnroll:
    def test_check_net_answers_pm033(self):
        with _Clock() as clock:
            report = check_source(SELF_ASSIGN, net=True)
        assert clock.seconds < DEADLINE
        assert [(d.code, d.line) for d in report.errors] == [("PM033", 8)]
        # refused, not unrolled: no net finding at all
        assert not any(d.code.startswith("PM08") for d in report.diagnostics)

    def test_compile_refuses(self):
        with pytest.raises(PMDLAnalysisError, match="PM033"):
            compile_model(SELF_ASSIGN)

    @pytest.mark.parametrize("update", ["i += 0", "i -= 0"])
    def test_other_zero_steps(self, update):
        report = check_source(SELF_ASSIGN.replace("i = i", update))
        assert [d.code for d in report.errors] == ["PM033"]

    @pytest.mark.parametrize("body", ["{ 100%%[i]; i++; }",
                                      "{ 100%%[i]; p = 0; }"])
    def test_loops_that_may_end_are_not_flagged(self, body):
        report = check_source(SELF_ASSIGN.replace("{ 100%%[i]; }", body))
        assert not any(d.code == "PM033" for d in report.diagnostics)


class TestStepBudget:
    def test_analyzer_cannot_refute_it(self):
        assert check_source(STEP_BUDGET_MODEL).ok

    def test_check_net_answers_pm084(self):
        with _Clock() as clock:
            report = check_source(STEP_BUDGET_MODEL, net=True)
        assert clock.seconds < DEADLINE
        assert [d.code for d in report.diagnostics] == ["PM084"]
        assert f"more than {MAX_NET_EVENTS} events" in report.diagnostics[0].message

    def test_estimate_time_raises(self):
        bound = compile_model(STEP_BUDGET_MODEL).bind(4, [1, 1, 1, 1])
        cluster = paper_network()
        netmodel = NetworkModel(cluster, list(range(cluster.size)))
        with _Clock() as clock, pytest.raises(
                PMDLRuntimeError, match=rf"budget of {STEP_BUDGET} .*line 10"):
            estimate_time(bound, netmodel, [0, 1, 2, 3])
        assert clock.seconds < DEADLINE

    def test_served_timeof_is_a_typed_rejection(self):
        req = validate_request({
            "op": "timeof", "model": STEP_BUDGET_MODEL,
            "params": {"p": 4, "s": [1, 1, 1, 1]}, "cluster": "paper"})
        with _Clock() as clock, pytest.raises(BadRequest, match="budget"):
            Executor().execute(req)
        assert clock.seconds < DEADLINE


class TestNetEventCap:
    SOURCE = """
    algorithm Many(int p) {
      coord I=p;
      node {I>=0: bench*(1);};
      scheme { int i; for (i = 0; i < 100000; i++) { Tick(); 1%%[0]; } };
    }
    """

    def test_lowering_stops_at_the_first_event_past_the_cap(self):
        ticks = []
        model = compile_model(self.SOURCE, {"Tick": lambda: ticks.append(1)})
        bound = model.bind(p=2)
        with pytest.raises(NetTooLarge, match=f"more than {MAX_NET_EVENTS}"):
            lower_model(bound, MAX_NET_EVENTS)
        assert len(ticks) == MAX_NET_EVENTS + 1
        # the uncapped lowering is unchanged
        assert len(lower_model(bound).events) == 100000

    def test_checks_skip_with_pm084(self):
        model = compile_model(self.SOURCE, {"Tick": lambda: None})
        diags = check_model_net(model)
        assert [d.code for d in diags] == ["PM084"]
