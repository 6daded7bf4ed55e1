"""Job bookkeeping: states, the store, and per-tenant quotas.

Jobs live in the server process only — workers see request dicts, never
:class:`Job` objects.  The store enforces the degradation contract:

- a tenant over its in-flight quota is **rejected with 429** at submit
  time (the job is recorded with status ``rejected`` so the tenant can
  see why, but it never reaches the queue);
- the global queue cap protects every tenant from one flooding tenant:
  when the whole server is saturated, submits 429 regardless of tenant;
- a job that exceeds its execution budget finishes as ``timeout`` and
  the waiting POST (if any) degrades to 504 — the job id stays pollable,
  and a late worker result for a timed-out job is discarded.

Finished jobs are retained (bounded, LRU-evicted) so ``GET /v1/jobs/<id>``
works after completion — as *cold records*: at its terminal transition a
job's document is frozen as the JSON text every later GET answers with,
and the parsed request, result tree and waiter event are dropped.  The
request body stays as it arrived; ``/trace`` re-validates it when asked.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from .protocol import JobRequest, NotFound, QuotaExceeded

__all__ = ["Job", "JobStore", "JOB_STATES"]

#: Lifecycle: queued → running → {done, error, timeout}; ``rejected``
#: is terminal at submit time (quota).
JOB_STATES = ("queued", "running", "done", "error", "timeout", "rejected")

_TERMINAL = frozenset({"done", "error", "timeout", "rejected"})


@dataclass(slots=True)
class Job:
    """One submitted request and its lifecycle."""

    id: str
    tenant: str
    op: str
    body: bytes  # the request as it arrived
    request: JobRequest | None  # None once terminal
    status: str = "queued"
    status_code: int = 200
    response: str | None = None  # the document as JSON text, set once terminal
    submitted: float = field(default_factory=time.monotonic)
    finished_at: float | None = None
    trace: str | None = None  # Chrome-trace JSON text, once asked for
    done_event: Any = None  # asyncio.Event, attached by the server loop

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def to_dict(self) -> dict[str, Any]:
        """What is known of a job before it ends."""
        return {"id": self.id, "op": self.op, "tenant": self.tenant,
                "status": self.status}

    def document(self) -> str:
        """The job's JSON document; the same text forever once terminal."""
        return self.response or json.dumps(self.to_dict())

    def _settle(self, status: str, status_code: int, result: Any,
                error: str | None) -> None:
        """Enter a terminal state and go cold."""
        self.status = status
        self.status_code = status_code
        doc = self.to_dict()
        if result is not None:
            doc["result"] = result
        if error is not None:
            doc["error"] = error
        if self.finished_at is not None:
            doc["elapsed_seconds"] = round(
                self.finished_at - self.submitted, 6)
        self.response = json.dumps(doc)
        self.request = None


class JobStore:
    """Thread-safe registry of jobs with quota accounting."""

    def __init__(self, *, max_inflight_per_tenant: int = 64,
                 max_inflight_total: int = 1024,
                 retain_finished: int = 4096):
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.max_inflight_total = max_inflight_total
        self.retain_finished = retain_finished
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._inflight: dict[str, int] = {}
        self._inflight_total = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.submitted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    def submit(self, request: JobRequest, body: bytes = b"") -> Job:
        """Admit a request, or raise :class:`QuotaExceeded` (429)."""
        with self._lock:
            tenant = request.tenant
            job = Job(id=f"j{next(self._ids):08d}", tenant=tenant,
                      op=request.op, body=body, request=request)
            refusal = None
            if self._inflight_total >= self.max_inflight_total:
                refusal = (f"server saturated: {self._inflight_total} "
                           "jobs in flight")
            elif self._inflight.get(tenant, 0) >= self.max_inflight_per_tenant:
                refusal = (f"tenant {tenant!r} quota exceeded: "
                           f"{self.max_inflight_per_tenant} jobs in flight")
            if refusal is not None:
                self.rejected += 1
                job._settle("rejected", 429, None, refusal)
                self._remember(job)
                raise QuotaExceeded(refusal)
            self.submitted += 1
            self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
            self._inflight_total += 1
            self._remember(job)
            return job

    def _remember(self, job: Job) -> None:
        self._jobs[job.id] = job
        while len(self._jobs) > self.retain_finished:
            # Evict the oldest *terminal* job; never drop a live one.
            for jid, j in self._jobs.items():
                if j.terminal:
                    del self._jobs[jid]
                    break
            else:
                break

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise NotFound(f"no such job {job_id!r}")
        return job

    def live(self) -> list[Job]:
        """Jobs that have not reached a terminal state."""
        with self._lock:
            return [job for job in self._jobs.values() if not job.terminal]

    # ------------------------------------------------------------------
    def mark_running(self, job: Job) -> None:
        with self._lock:
            if job.status == "queued":
                job.status = "running"

    def finish(self, job: Job, *, status: str, result: Any = None,
               error: str | None = None, status_code: int = 200) -> bool:
        """Finalise a job; False when it already reached a terminal state
        (e.g. a worker result arriving after the job timed out)."""
        with self._lock:
            if job.terminal:
                return False
            job.finished_at = time.monotonic()
            job._settle(status, status_code, result, error)
            tenant = job.tenant
            remaining = self._inflight.get(tenant, 1) - 1
            if remaining > 0:
                self._inflight[tenant] = remaining
            else:
                self._inflight.pop(tenant, None)
            self._inflight_total -= 1
        event, job.done_event = job.done_event, None
        if event is not None:
            event.set()
        return True

    # ------------------------------------------------------------------
    def inflight(self, tenant: str | None = None) -> int:
        with self._lock:
            if tenant is None:
                return self._inflight_total
            return self._inflight.get(tenant, 0)

    def counts(self) -> dict[str, int]:
        with self._lock:
            by_status: dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "submitted": self.submitted,
                "rejected": self.rejected,
                "inflight": self._inflight_total,
                **{f"status_{k}": v for k, v in sorted(by_status.items())},
            }
