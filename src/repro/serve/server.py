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
        └─▶ BatchPlanner ──(lane idle)──▶ WorkerPool lane
                 ▲                             │
                 └── drain ◀── result ─────────┴─▶ finish + wake waiters

A job whose lane has nothing outstanding is shipped at once; one that
arrives behind a busy lane waits in the planner and leaves, coalesced
with its equals, when the lane's last outstanding task reports back.

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
from collections import Counter
from typing import Any

from ..obs import EventBus, MetricsRegistry, MonitorRoutes
from ..obs.server import HttpTransport, json_error
from .batcher import BatchPlanner
from .jobs import Job, JobStore
from .protocol import (
    PROTOCOL_VERSION,
    SELECTION_OPS,
    BadRequest,
    JobRequest,
    NotFound,
    QuotaExceeded,
    ServeError,
    validate_request,
)
from .workers import WorkerPool

__all__ = ["ServeServer", "DEFAULT_WAIT"]

#: Seconds a POST waits for its result before degrading to 504.
DEFAULT_WAIT = 30.0


def _shard(request: JobRequest) -> str:
    """The digest that routes a request to its lane: its world's."""
    return request.world_digest or request.model_digest or "0"


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
                 default_wait: float = DEFAULT_WAIT):
        super().__init__(host=host, port=port, name="repro-serve")
        self.workers = workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.telemetry = telemetry if telemetry is not None else EventBus()
        self.store = JobStore(
            max_inflight_per_tenant=max_inflight_per_tenant,
            max_inflight_total=max_inflight_total)
        self.planner = BatchPlanner()
        self.default_wait = default_wait
        self._routes = MonitorRoutes(
            snapshot_fn=self.metrics.snapshot,
            telemetry=self.telemetry,
            health_extra=self._health_extra)
        self._task_ids = itertools.count(1)
        # Shipped tasks, id -> (lane, batch jobs or trace future), and how
        # many of them each lane still owes a result for.
        self._tasks: dict[str, tuple[int, list[Job] | asyncio.Future]] = {}
        self._outstanding: Counter[int] = Counter()
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
        # No result can arrive now: fail what was shipped or still queued.
        for job in self.store.live():
            if self.store.finish(job, status="error", status_code=503,
                                 error="server stopped"):
                self._finish_metrics(job)
        self._tasks.clear()
        self._outstanding.clear()

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
                status, text = await self._submit(body)
            elif method != "GET":
                return json_error(405, "GET required")
            elif plain.startswith("/v1/jobs/"):
                rest = plain[len("/v1/jobs/"):]
                if rest.endswith("/trace"):
                    status, text = await self._trace(rest[:-len("/trace")])
                else:
                    status, text = 200, self.store.get(rest).document()
            else:
                return (self._routes.handle(path)
                        or json_error(404, f"no route {plain!r}"))
        except ServeError as exc:
            return json_error(exc.status, str(exc))
        return status, "application/json", text + "\n"

    # ------------------------------------------------------------------
    # job submission and completion
    # ------------------------------------------------------------------
    @staticmethod
    def _parse(body: bytes) -> JobRequest:
        try:
            raw = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"request body is not JSON: {exc}") from exc
        return validate_request(raw)

    async def _submit(self, body: bytes) -> tuple[int, str]:
        request = self._parse(body)
        tenant, op = request.tenant, request.op
        try:
            job = self.store.submit(request, body)
        except QuotaExceeded:
            self.metrics.counter("serve.jobs.rejected", tenant=tenant).inc()
            self.telemetry.emit("serve", "job.reject", tenant=tenant, op=op)
            raise
        self.metrics.counter("serve.jobs.submitted", tenant=tenant, op=op).inc()
        self.metrics.gauge("serve.jobs.inflight").set(self.store.inflight())
        self.telemetry.emit("serve", "job.submit",
                            job=job.id, tenant=tenant, op=op)
        assert self._pool is not None
        lane = self._pool.lane_of(_shard(request))
        self.planner.add(job, lane)
        if not self._outstanding[lane]:
            self._dispatch(lane)
        if request.timeout is not None:
            asyncio.get_running_loop().call_later(
                request.timeout, self._expire, job, request.timeout)

        wait = self.default_wait if request.wait is None else request.wait
        if wait <= 0:
            return 202, json.dumps({"id": job.id, "status": job.status})
        done = job.done_event = asyncio.Event()
        try:
            await asyncio.wait_for(done.wait(), timeout=wait)
        except asyncio.TimeoutError:
            if not job.terminal:
                doc = job.to_dict()
                doc["error"] = (f"result not ready within wait={wait}s; "
                                "poll the id")
                return 504, json.dumps(doc)
        return job.status_code, job.document()

    def _expire(self, job: Job, budget: float) -> None:
        if self.store.finish(job, status="timeout", status_code=504,
                             error=f"job exceeded its {budget}s budget"):
            self._finish_metrics(job)

    def _finish_metrics(self, job: Job, result: Any = None) -> None:
        self.metrics.counter("serve.jobs.completed", tenant=job.tenant,
                             op=job.op, status=job.status).inc()
        self.metrics.gauge("serve.jobs.inflight").set(self.store.inflight())
        if job.finished_at is not None:
            self.metrics.histogram("serve.latency.seconds", op=job.op).observe(
                job.finished_at - job.submitted)
        if isinstance(result, dict) and "cache" in result:
            which = ("serve.cache.hits" if result["cache"] == "hit"
                     else "serve.cache.misses")
            self.metrics.counter(which, tenant=job.tenant).inc()
        self.telemetry.emit("serve", "job.finish", job=job.id,
                            tenant=job.tenant, op=job.op, status=job.status)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _ship(self, kind: str, requests: list[JobRequest],
              owner: list[Job] | asyncio.Future) -> str:
        """Send one task to its lane and count it outstanding there."""
        assert self._pool is not None
        task_id = f"t{next(self._task_ids):08d}"
        shard = _shard(requests[0])
        lane = self._pool.lane_of(shard)
        self._tasks[task_id] = (lane, owner)
        self._outstanding[lane] += 1
        self._pool.submit(task_id, shard, {
            "kind": kind, "requests": [req.to_dict() for req in requests]})
        return task_id

    def _dispatch(self, lane: int) -> None:
        """Ship everything queued for an idle lane, one task per batch."""
        for jobs in self.planner.drain(lane):
            for job in jobs:
                self.store.mark_running(job)
            if len(jobs) > 1:
                self.metrics.counter("serve.jobs.coalesced").inc(len(jobs) - 1)
            self.metrics.counter("serve.batches.dispatched").inc()
            requests = [job.request for job in jobs]
            task_id = self._ship("batch", requests, jobs)
            self.telemetry.emit("serve", "batch.dispatch", task=task_id,
                                jobs=len(jobs), key=requests[0].batch_key[0])

    # Called from the collector thread — bounce into the loop.
    def _result_from_lane(self, task_id: str, outcomes: list[dict]) -> None:
        loop = self.loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._apply_outcomes, task_id, outcomes)

    def _apply_outcomes(self, task_id: str, outcomes: list[dict]) -> None:
        task = self._tasks.pop(task_id, None)
        if task is None:
            return
        lane, owner = task
        self._outstanding[lane] -= 1
        if isinstance(owner, asyncio.Future):
            if not owner.done():  # cancelled when the trace wait expired
                owner.set_result(outcomes[0])
        else:
            for job, outcome in zip(owner, outcomes):
                if "ok" in outcome:
                    finished = self.store.finish(job, status="done",
                                                 result=outcome["ok"])
                else:
                    finished = self.store.finish(
                        job, status="error", error=outcome["error"],
                        status_code=int(outcome.get("status", 500)))
                if finished:
                    self._finish_metrics(job, outcome.get("ok"))
        if not self._outstanding[lane]:
            self._dispatch(lane)

    # ------------------------------------------------------------------
    # trace
    # ------------------------------------------------------------------
    async def _trace(self, job_id: str) -> tuple[int, str]:
        job = self.store.get(job_id)
        if job.op not in SELECTION_OPS:
            raise BadRequest(
                f"job {job_id} is a {job.op!r} job; traces exist "
                "for timeof and group_create jobs")
        if job.status != "done":
            raise NotFound(
                f"job {job_id} is {job.status}; trace exists once done")
        if job.trace is None:
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._ship("trace", [self._parse(job.body)], future)
            try:
                outcome = await asyncio.wait_for(future,
                                                 timeout=self.default_wait)
            except asyncio.TimeoutError as exc:
                raise ServeError("trace export timed out") from exc
            if "error" in outcome:
                raise BadRequest(outcome["error"])
            job.trace = json.dumps(outcome["ok"])
        return 200, job.trace
