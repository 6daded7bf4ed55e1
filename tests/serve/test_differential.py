"""The bitwise guarantee: served results equal direct in-process calls.

The server executes through :meth:`repro.serve.exec.Executor.execute` —
the same code path these tests drive directly — and JSON floats
round-trip through ``repr``, so equality here is exact ``==`` on floats,
not approx.  The matrix covers both selection ops under both engines,
plus the check and campaign-cell ops and one end-to-end HTTP round trip.
"""

import pytest

from repro.apps.em3d.model import EM3D_MODEL_SOURCE
from repro.cluster import paper_network
from repro.core import run_hmpi
from repro.perfmodel import compile_model
from repro.serve import Executor, validate_request

EM3D_PARAMS = {
    "p": 4, "k": 1, "d": [10, 10, 10, 10],
    "dep": [[0, 2, 0, 0], [2, 0, 2, 0], [0, 2, 0, 2], [0, 0, 2, 0]],
}

ENGINES = ("events", "threads")
# Both sides price with the compiled-trace replay; the ids say so.
ENGINE_IDS = [f"trace-{engine}" for engine in ENGINES]


def em3d_request(op, **over):
    raw = {"op": op, "model": EM3D_MODEL_SOURCE,
           "params": EM3D_PARAMS, "cluster": "paper"}
    raw.update(over)
    return validate_request(raw)


def bound_em3d():
    return compile_model(EM3D_MODEL_SOURCE).bind(**EM3D_PARAMS)


def direct_timeof(*, mapper="default", engine=None, iterations=1.0):
    model = bound_em3d()

    def app(hmpi):
        if hmpi.is_host():
            return hmpi.timeof(model, mapper, iterations=iterations)
        return None

    res = run_hmpi(app, paper_network(), engine=engine)
    return res.results[0]


def direct_group_create(*, mapper="default", engine=None):
    model = bound_em3d()

    def app(hmpi):
        if hmpi.is_host():
            gid = hmpi.group_create(model, mapper)
            mapping = gid.mapping
            out = (list(mapping.processes), list(mapping.machines),
                   mapping.time)
            hmpi.group_free(gid)
            hmpi.release_free()
            return out
        while True:
            gid = hmpi.group_create(None, mapper)
            if gid is None:
                return None
            if gid.is_member:
                hmpi.group_free(gid)

    res = run_hmpi(app, paper_network(), engine=engine)
    return res.results[0]


class TestTimeofBitwise:
    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_served_equals_direct(self, engine):
        served = Executor().execute(em3d_request("timeof"))
        direct = direct_timeof(engine=engine)
        assert served["predicted_time"] == direct  # bitwise

    def test_iterations_scale_exactly(self):
        served = Executor().execute(em3d_request("timeof", iterations=57.0))
        assert served["predicted_time"] == direct_timeof(iterations=57.0)

    @pytest.mark.parametrize("mapper", ["greedy", "refine", "exhaustive"])
    def test_every_mapper_agrees(self, mapper):
        served = Executor().execute(em3d_request("timeof", mapper=mapper))
        assert served["predicted_time"] == direct_timeof(mapper=mapper)


class TestGroupCreateBitwise:
    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_served_equals_direct(self, engine):
        served = Executor().execute(em3d_request("group_create"))
        processes, machines, time = direct_group_create(engine=engine)
        assert served["mapping"]["processes"] == processes
        assert served["mapping"]["machines"] == machines
        assert served["mapping"]["time"] == time  # bitwise
        assert served["group_size"] == len(processes)


class TestCheckBitwise:
    def test_report_equals_direct_check_source(self):
        from repro.perfmodel import check_source
        from repro.serve.exec import stub_externals

        served = Executor().execute(
            validate_request({"op": "check", "model": EM3D_MODEL_SOURCE,
                              "net": True}))
        report = check_source(EM3D_MODEL_SOURCE, target="<request>",
                              net=True,
                              externals=stub_externals(EM3D_MODEL_SOURCE))
        assert served["report"] == report.to_dict()
        assert served["exit_code"] == report.exit_code(strict=False)


class TestCampaignCellBitwise:
    CONFIG = {
        "name": "serve_diff", "app": "timeof_em3d",
        "fixed": {"cluster": "paper", "p": 4, "total_nodes": 4000,
                  "problem_seed": 3, "k": 100, "boundary_fraction": 0.3},
        "axes": {"mapper": ["greedy", "default"]},
    }

    @pytest.mark.parametrize("cell", [0, 1])
    def test_metrics_equal_direct_run_one(self, cell):
        from repro.campaign import CampaignConfig
        from repro.campaign.runner import run_one

        served = Executor().execute(validate_request(
            {"op": "campaign_cell", "campaign": self.CONFIG, "cell": cell}))
        config = CampaignConfig(self.CONFIG)
        spec = config.expand()[cell]
        assert served["metrics"] == run_one(config, spec)
        assert served["seed"] == spec.seed


class TestServedCacheIsTransparent:
    def test_hit_and_miss_answers_are_identical(self):
        ex = Executor()
        first = ex.execute(em3d_request("timeof"))
        second = ex.execute(em3d_request("timeof", tenant="other"))
        assert first["cache"] == "miss" and second["cache"] == "hit"
        assert first["predicted_time"] == second["predicted_time"]
        # group_create shares the selection cache with timeof.
        third = ex.execute(em3d_request("group_create"))
        assert third["cache"] == "hit"
        assert third["mapping"]["time"] == first["mapping"]["time"]

    def test_resubmitted_speeds_stay_cached(self):
        ex = Executor()
        speeds = [float(s) for s in range(100, 1000, 100)]
        a = ex.execute(em3d_request("timeof", speeds=speeds))
        b = ex.execute(em3d_request("timeof", speeds=list(speeds)))
        assert (a["cache"], b["cache"]) == ("miss", "hit")
        assert a["speed_epoch"] == b["speed_epoch"]
        # Changing one estimate bumps the epoch: stale entries unreachable.
        changed = list(speeds)
        changed[3] *= 2
        c = ex.execute(em3d_request("timeof", speeds=changed))
        assert c["cache"] == "miss"
        assert c["speed_epoch"] > a["speed_epoch"]


class TestHTTPBitwise:
    def test_round_trip_over_the_wire_is_exact(self):
        from repro.hmpi import connect
        from repro.serve import ServeServer

        server = ServeServer(workers=0).start_background()
        try:
            client = connect(server.url, tenant="diff")
            served = client.timeof(EM3D_MODEL_SOURCE, params=EM3D_PARAMS,
                                   cluster="paper")
            assert isinstance(served, float)
            assert served == direct_timeof()  # survived JSON both ways
            mapping = client.group_create(EM3D_MODEL_SOURCE,
                                          params=EM3D_PARAMS,
                                          cluster="paper")
            processes, machines, time = direct_group_create()
            assert mapping == {"processes": processes,
                               "machines": machines, "time": time}
        finally:
            server.stop()
