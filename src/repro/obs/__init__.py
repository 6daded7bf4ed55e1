"""Unified observability: metrics, runtime spans, Chrome-trace export,
and Timeof prediction-accuracy tracking.

Quick use::

    from repro.obs import Observability
    obs = Observability()
    run_hmpi(app, cluster, obs=obs)
    obs.write_chrome_trace("trace.json")      # open in ui.perfetto.dev
    print(obs.accuracy.render())              # predicted vs measured
    json.dump(obs.snapshot(), fh)             # metrics + accuracy

See ``docs/OBSERVABILITY.md`` for the metrics catalogue and the span
taxonomy.
"""

from .accuracy import PredictionRecord, PredictionTracker, model_key
from .chrometrace import (
    RANKS_PID,
    RUNTIME_PID,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .core import Observability
from .netexport import net_chrome_trace, schedule_net
from .metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    publish_selection_stats,
)
from .openmetrics import parse_openmetrics, render_openmetrics
from .server import EVENTS_TAIL_CAP, MonitorRoutes
from .spans import Span, SpanLog
from .telemetry import TELEMETRY_SCHEMA_VERSION, EventBus, TelemetryEvent

__all__ = [
    "Observability",
    "MetricsRegistry",
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "publish_selection_stats",
    "EventBus",
    "TelemetryEvent",
    "TELEMETRY_SCHEMA_VERSION",
    "render_openmetrics",
    "parse_openmetrics",
    "MonitorRoutes",
    "EVENTS_TAIL_CAP",
    "Span",
    "SpanLog",
    "PredictionTracker",
    "PredictionRecord",
    "model_key",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "net_chrome_trace",
    "schedule_net",
    "RANKS_PID",
    "RUNTIME_PID",
]
