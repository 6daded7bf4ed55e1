"""HMPI-as-a-service: the multi-tenant prediction & selection server.

``Timeof``/``Group_create`` are pure functions of (model, cluster,
params), so the simulator can be *served*: tenants POST PMDL source +
cluster JSON to ``/v1/jobs`` and get back predictions, selected groups,
diagnostic reports, campaign cells, and Chrome traces — with identical
requests coalesced into one evaluation and results cached across
tenants in the runtime's selection cache, one per cluster digest.  See
``docs/SERVING.md`` for the API reference and semantics.

Quick start::

    repro serve --port 8080 --workers 2          # CLI

    from repro.hmpi import connect               # client facade
    client = connect("http://127.0.0.1:8080")
    t = client.timeof(SOURCE, params={...}, cluster="paper")

The served result is **bitwise-identical** to the direct in-process
call — server and tests share one execution path
(:meth:`repro.serve.exec.Executor.execute`).
"""

from .batcher import BatchPlanner
from .client import ServeClient, ServeHTTPError, connect
from .exec import Executor, WorldContext
from .jobs import JOB_STATES, Job, JobStore
from .protocol import (
    PROTOCOL_VERSION,
    SERVE_OPS,
    BadRequest,
    JobRequest,
    NotFound,
    QuotaExceeded,
    ServeError,
    validate_request,
)
from .server import DEFAULT_WAIT, ServeServer
from .workers import WorkerPool

__all__ = [
    "ServeServer",
    "ServeClient",
    "ServeHTTPError",
    "connect",
    "Executor",
    "WorldContext",
    "WorkerPool",
    "BatchPlanner",
    "Job",
    "JobStore",
    "JOB_STATES",
    "JobRequest",
    "validate_request",
    "ServeError",
    "BadRequest",
    "QuotaExceeded",
    "NotFound",
    "PROTOCOL_VERSION",
    "SERVE_OPS",
    "DEFAULT_WAIT",
]
