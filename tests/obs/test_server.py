"""MonitorRoutes: every monitoring endpoint, served without a transport.

``ServeServer`` mounts these routes next to its job API;
``tests/serve/test_server.py`` checks that they are mounted and
``tests/obs/test_transport.py`` that the transport survives hostile
requests, so the route logic is tested here on its own.
"""

import json

import pytest

from repro.obs import (
    EventBus,
    MetricsRegistry,
    MonitorRoutes,
    Observability,
    parse_openmetrics,
)
from repro.serve import ServeServer


def get(routes: MonitorRoutes, path: str):
    """(status, content-type, body text); an unrouted path is a 404."""
    return routes.handle(path) or (404, "text/plain", "not found\n")


@pytest.fixture()
def stack():
    """(routes, registry, bus) over a registry and a telemetry bus."""
    registry = MetricsRegistry()
    registry.counter("hmpi.repairs").inc(2)
    registry.gauge("engine.heap").set(5.0, vtime=1.5)
    bus = EventBus()
    bus.emit("fault", "rank.dead", rank=3)
    bus.emit("campaign", "cell.finish", done=1, total=4)
    yield (MonitorRoutes(snapshot_fn=registry.snapshot, telemetry=bus),
           registry, bus)
    bus.close()


@pytest.fixture()
def server():
    srv = ServeServer(workers=0).start_background()
    yield srv
    srv.stop()


class TestEndpoints:
    def test_healthz(self, stack):
        routes, _, _ = stack
        status, ctype, body = get(routes, "/healthz")
        assert status == 200 and ctype == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0.0

    def test_metrics_serves_valid_openmetrics(self, stack):
        routes, _, _ = stack
        status, ctype, body = get(routes, "/metrics")
        assert status == 200
        assert ctype.startswith("application/openmetrics-text")
        families = parse_openmetrics(body)
        assert families["hmpi_repairs"]["samples"] == [
            ("hmpi_repairs_total", {}, 2.0)]

    def test_metrics_reflects_live_updates(self, stack):
        routes, registry, _ = stack
        registry.counter("hmpi.repairs").inc(5)
        _, _, body = get(routes, "/metrics")
        assert "hmpi_repairs_total 7.0" in body

    def test_snapshot_is_schema_versioned_json(self, stack):
        routes, _, _ = stack
        status, ctype, body = get(routes, "/snapshot")
        assert status == 200 and ctype == "application/json"
        snap = json.loads(body)
        assert snap["schema_version"] == 1
        assert {m["name"] for m in snap["metrics"]} == {
            "hmpi.repairs", "engine.heap"}

    def test_events_ndjson_tail(self, stack):
        routes, _, _ = stack
        status, ctype, body = get(routes, "/events")
        assert status == 200 and ctype == "application/x-ndjson"
        events = [json.loads(line) for line in body.strip().splitlines()]
        assert [e["name"] for e in events] == ["rank.dead", "cell.finish"]
        assert events[0]["rank"] == 3

    def test_events_n_caps_the_tail(self, stack):
        routes, _, bus = stack
        bus.emit("fault", "rank.dead", rank=4)
        _, _, body = get(routes, "/events?n=1")
        events = body.strip().splitlines()
        assert len(events) == 1
        assert json.loads(events[0])["rank"] == 4

    def test_events_bad_n_is_400(self, stack):
        routes, _, _ = stack
        status, _, _ = get(routes, "/events?n=wat")
        assert status == 400

    @pytest.mark.parametrize("n", ["-1", "-3", "1000001", str(10**18), "1.5",
                                   "nan", "inf", "0x10", ""])
    def test_events_hostile_n_is_400_not_a_crash(self, stack, n):
        # Regression: these used to raise in the handler.  The routes
        # must answer 400 and keep serving afterwards.
        routes, _, _ = stack
        status, _, body = get(routes, f"/events?n={n}")
        assert status == 400, (n, body)
        assert get(routes, "/events?n=1")[0] == 200

    def test_events_n_zero_is_empty_200(self, stack):
        routes, _, _ = stack
        status, _, body = get(routes, "/events?n=0")
        assert status == 200
        assert body.strip() == ""

    def test_unknown_route_is_404(self, stack):
        routes, _, _ = stack
        assert routes.handle("/nope") is None
        assert get(routes, "/nope")[0] == 404


class TestConfiguration:
    def test_metrics_only_has_no_events_endpoint(self):
        routes = MonitorRoutes(snapshot_fn=MetricsRegistry().snapshot)
        assert get(routes, "/events")[0] == 404
        assert get(routes, "/metrics")[0] == 200

    def test_telemetry_only_has_no_metrics_endpoint(self):
        bus = EventBus()
        routes = MonitorRoutes(telemetry=bus)
        assert get(routes, "/metrics")[0] == 404
        assert get(routes, "/events")[0] == 200
        bus.close()

    def test_snapshot_fn_overrides_metrics(self):
        obs = Observability(telemetry=True)
        obs.metrics.counter("c").inc()
        routes = MonitorRoutes(snapshot_fn=obs.snapshot,
                               telemetry=obs.telemetry)
        snap = json.loads(get(routes, "/snapshot")[2])
        # The Observability snapshot folds extra sections in.
        assert "telemetry" in snap and "spans" in snap

    # The transport's start/stop contract, through the server built on it.
    def test_ephemeral_port_bound_and_reported(self, server):
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_double_start_rejected(self, server):
        with pytest.raises(RuntimeError, match="already started"):
            server.start_background()

    def test_stop_is_idempotent(self, server):
        server.stop()
        server.stop()
