"""The asyncio job server: routing, dispatch, and degradation.

One event loop owns everything that isn't pure computation: validation,
quotas, the batch planner, job bookkeeping, and the monitoring surface.
HTTP itself — request reading, response writing, the start/stop
lifecycle — is :class:`~repro.obs.server.HttpTransport`, the transport
``repro monitor`` uses too.  Computation happens in the
:class:`~repro.serve.workers.WorkerPool` lanes; results come back via
``call_soon_threadsafe`` so the loop is never blocked by an evaluation.

Request lifecycle::

    POST /v1/jobs ──validate──▶ JobStore.submit (429 on quota)
        └─▶ BatchPlanner ──(batch window)──▶ WorkerPool lane
                 └──────────── result ────▶ finish + wake waiters

A POST blocks up to ``wait`` seconds (default 30; ``wait: 0`` returns
202 immediately) and degrades to **504** when the result isn't ready —
the job keeps running and stays pollable at ``GET /v1/jobs/<id>``.  A
job-level ``timeout`` finishes the job as ``timeout`` (504) even if no
one is waiting; a worker result arriving after that is discarded.

The monitoring routes (``/metrics``, ``/snapshot``, ``/events``,
``/healthz``) are the exact :class:`~repro.obs.server.MonitorRoutes`
logic the standalone ``repro monitor`` endpoint uses, fed by this
server's own registry and event bus — the server is its own ops
dashboard.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Any

from ..obs import EventBus, MetricsRegistry, MonitorRoutes
from ..obs.server import HttpTransport, json_error
from .batcher import BatchPlanner
from .jobs import Job, JobStore
from .protocol import (
    PROTOCOL_VERSION,
    BadRequest,
    NotFound,
    QuotaExceeded,
    ServeError,
    validate_request,
)
from .workers import WorkerPool

__all__ = ["ServeServer", "DEFAULT_WAIT", "BATCH_WINDOW"]

#: Seconds a POST waits for its result before degrading to 504.
DEFAULT_WAIT = 30.0

#: Seconds the planner lets concurrent submissions pile up before a
#: flush — long enough to coalesce a burst, invisible next to a
#: selection.
BATCH_WINDOW = 0.005


class ServeServer(HttpTransport):
    """Multi-tenant HMPI prediction/selection server.

    Use :meth:`start_background` for an in-process server (tests, the
    client facade) or :meth:`run` under ``asyncio.run`` (the CLI).
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 0,
                 metrics: MetricsRegistry | None = None,
                 telemetry: EventBus | None = None,
                 max_inflight_per_tenant: int = 64,
                 max_inflight_total: int = 1024,
                 default_wait: float = DEFAULT_WAIT,
                 batch_window: float = BATCH_WINDOW):
        super().__init__(host=host, port=port, name="repro-serve")
        self.workers = workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.telemetry = telemetry if telemetry is not None else EventBus()
        self.store = JobStore(
            max_inflight_per_tenant=max_inflight_per_tenant,
            max_inflight_total=max_inflight_total)
        self.planner = BatchPlanner()
        self.default_wait = default_wait
        self.batch_window = batch_window
        self._routes = MonitorRoutes(
            snapshot_fn=self.metrics.snapshot,
            telemetry=self.telemetry,
            health_extra=self._health_extra)
        self._task_ids = itertools.count(1)
        self._dispatched: dict[str, list[Job]] = {}
        self._trace_futures: dict[str, asyncio.Future] = {}
        self._flush_armed = False
        self._pool: WorkerPool | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _bind(self) -> asyncio.AbstractServer:
        server = await super()._bind()
        self._pool = WorkerPool(self.workers, on_result=self._result_from_lane)
        return server

    def stop(self) -> None:
        super().stop()
        if self._pool is not None:
            self._pool.stop()

    def _health_extra(self) -> dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "workers": self.workers,
            "jobs": self.store.counts(),
            "batcher": self.planner.stats_dict(),
        }

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def handle(self, method: str, path: str,
                     body: bytes) -> tuple[int, str, str]:
        """The job API as JSON with every ServeError typed, the
        monitoring routes as they render."""
        plain = path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if plain == "/v1/jobs":
                if method != "POST":
                    return json_error(405, "POST required")
                status, doc = await self._submit(body)
            elif method != "GET":
                return json_error(405, "GET required")
            elif plain.startswith("/v1/jobs/"):
                rest = plain[len("/v1/jobs/"):]
                if rest.endswith("/trace"):
                    status, doc = await self._trace(rest[:-len("/trace")])
                else:
                    status, doc = self._job_status(rest)
            else:
                return (self._routes.handle(path)
                        or json_error(404, f"no route {plain!r}"))
        except ServeError as exc:
            return json_error(exc.status, str(exc))
        return status, "application/json", json.dumps(doc) + "\n"

    # ------------------------------------------------------------------
    # job submission and completion
    # ------------------------------------------------------------------
    async def _submit(self, body: bytes) -> tuple[int, Any]:
        try:
            raw = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"request body is not JSON: {exc}") from exc
        request = validate_request(raw)
        tenant, op = request.tenant, request.op
        try:
            job = self.store.submit(request)
        except QuotaExceeded:
            self.metrics.counter("serve.jobs.rejected", tenant=tenant).inc()
            self.telemetry.emit("serve", "job.reject", tenant=tenant, op=op)
            raise
        job.done_event = asyncio.Event()
        self.metrics.counter("serve.jobs.submitted", tenant=tenant, op=op).inc()
        self.metrics.gauge("serve.jobs.inflight").set(self.store.inflight())
        self.telemetry.emit("serve", "job.submit",
                            job=job.id, tenant=tenant, op=op)
        self.planner.add(job)
        self._arm_flush()
        if request.timeout is not None:
            asyncio.get_running_loop().call_later(
                request.timeout, self._expire, job)

        wait = self.default_wait if request.wait is None else request.wait
        if wait <= 0:
            return 202, {"id": job.id, "status": job.status}
        try:
            await asyncio.wait_for(job.done_event.wait(), timeout=wait)
        except asyncio.TimeoutError:
            doc = job.to_dict()
            doc["error"] = f"result not ready within wait={wait}s; poll the id"
            return 504, doc
        return job.status_code, job.to_dict()

    def _expire(self, job: Job) -> None:
        if self.store.finish(
                job, status="timeout", status_code=504,
                error=f"job exceeded its {job.request.timeout}s budget"):
            self._finish_metrics(job)

    def _finish_metrics(self, job: Job) -> None:
        self.metrics.counter("serve.jobs.completed", tenant=job.tenant,
                             op=job.request.op, status=job.status).inc()
        self.metrics.gauge("serve.jobs.inflight").set(self.store.inflight())
        if job.finished_at is not None:
            self.metrics.histogram("serve.latency.seconds",
                                   op=job.request.op).observe(
                job.finished_at - job.submitted)
        if isinstance(job.result, dict) and "cache" in job.result:
            which = ("serve.cache.hits" if job.result["cache"] == "hit"
                     else "serve.cache.misses")
            self.metrics.counter(which, tenant=job.tenant).inc()
        self.telemetry.emit("serve", "job.finish", job=job.id,
                            tenant=job.tenant, op=job.request.op,
                            status=job.status)

    # ------------------------------------------------------------------
    # batching and dispatch
    # ------------------------------------------------------------------
    def _arm_flush(self) -> None:
        if self._flush_armed:
            return
        self._flush_armed = True
        asyncio.get_running_loop().create_task(self._flush_soon())

    async def _flush_soon(self) -> None:
        await asyncio.sleep(self.batch_window)
        self._flush_armed = False
        assert self._pool is not None
        for batch in self.planner.drain():
            jobs = [job for job in batch.jobs if not job.terminal]
            if not jobs:
                continue
            for job in jobs:
                self.store.mark_running(job)
            task_id = f"t{next(self._task_ids):08d}"
            self._dispatched[task_id] = jobs
            rep = jobs[0].request
            shard = rep.world_digest or rep.model_digest or "0"
            if len(jobs) > 1:
                self.metrics.counter("serve.jobs.coalesced").inc(len(jobs) - 1)
            self.metrics.counter("serve.batches.dispatched").inc()
            self.telemetry.emit("serve", "batch.dispatch", task=task_id,
                                jobs=len(jobs), key=batch.key[0])
            self._pool.submit(task_id, shard, {
                "kind": "batch",
                "requests": [job.request.to_dict() for job in jobs],
            })

    # Called from the collector thread — bounce into the loop.
    def _result_from_lane(self, task_id: str, outcomes: list[dict]) -> None:
        loop = self.loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._apply_outcomes, task_id, outcomes)

    def _apply_outcomes(self, task_id: str, outcomes: list[dict]) -> None:
        future = self._trace_futures.pop(task_id, None)
        if future is not None:
            if not future.done():
                future.set_result(outcomes[0])
            return
        jobs = self._dispatched.pop(task_id, None)
        if jobs is None:
            return
        for job, outcome in zip(jobs, outcomes):
            if "ok" in outcome:
                finished = self.store.finish(job, status="done",
                                             result=outcome["ok"])
            else:
                finished = self.store.finish(
                    job, status="error", error=outcome["error"],
                    status_code=int(outcome.get("status", 500)))
            if finished:
                self._finish_metrics(job)

    # ------------------------------------------------------------------
    # status and trace
    # ------------------------------------------------------------------
    def _job_status(self, job_id: str) -> tuple[int, Any]:
        job = self.store.get(job_id)
        return 200, job.to_dict()

    async def _trace(self, job_id: str) -> tuple[int, Any]:
        job = self.store.get(job_id)
        if job.request.op not in ("timeof", "group_create"):
            raise BadRequest(
                f"job {job_id} is a {job.request.op!r} job; traces exist "
                "for timeof and group_create jobs")
        if job.status != "done":
            raise NotFound(
                f"job {job_id} is {job.status}; trace exists once done")
        if job.trace is not None:
            return 200, job.trace
        assert self._pool is not None
        task_id = f"t{next(self._task_ids):08d}"
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._trace_futures[task_id] = future
        rep = job.request
        shard = rep.world_digest or rep.model_digest or "0"
        self._pool.submit(task_id, shard, {
            "kind": "trace", "requests": [rep.to_dict()]})
        try:
            outcome = await asyncio.wait_for(future, timeout=self.default_wait)
        except asyncio.TimeoutError as exc:
            self._trace_futures.pop(task_id, None)
            raise ServeError("trace export timed out") from exc
        if "error" in outcome:
            raise BadRequest(outcome["error"])
        job.trace = outcome["ok"]
        return 200, job.trace
