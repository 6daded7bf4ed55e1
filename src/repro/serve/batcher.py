"""The batching planner: coalesce identical work queued behind a busy lane.

Selection results are pure functions of the (model digest, cluster
digest, shape digest) triple, so N queued jobs with equal triples need
exactly one selection — the planner groups them into one batch and
the executor fans the single cached mapping back out to every member
(members may still differ in tenant and ``iterations``; those are
applied per job, after the shared evaluation).

Jobs wait here per lane, and only while their lane has work
outstanding; the server drains a lane the moment it falls idle.  A drain
keeps the lane's arrival order: batches leave in the order of their
first member, and no job joins a batch across a request that carries
``speeds`` — that request changes the world the later job is answered in.
"""

from __future__ import annotations

from collections import defaultdict

from .jobs import Job

__all__ = ["BatchPlanner"]


class BatchPlanner:
    """Per-lane queues + grouping logic; owned by the server's event loop."""

    def __init__(self) -> None:
        self._pending: defaultdict[int, list[Job]] = defaultdict(list)
        self.jobs_in = 0
        self.batches_out = 0
        self.coalesced = 0

    def add(self, job: Job, lane: int = 0) -> None:
        self._pending[lane].append(job)
        self.jobs_in += 1

    def drain(self, lane: int = 0) -> list[list[Job]]:
        """Group the lane's pending jobs into batches (equal batch keys,
        one evaluation each), in first-arrival order; jobs that went
        terminal while queued (budget expired) are dropped."""
        by_key: dict[tuple, list[Job]] = {}
        batches: list[list[Job]] = []
        for job in self._pending.pop(lane, ()):
            if job.terminal:
                continue
            request = job.request
            if request.speeds is not None:
                by_key.clear()
            batch = by_key.get(request.batch_key)
            if batch is None:
                batch = by_key[request.batch_key] = []
                batches.append(batch)
            batch.append(job)
        self.batches_out += len(batches)
        self.coalesced += sum(len(batch) - 1 for batch in batches)
        return batches

    def stats_dict(self) -> dict[str, int]:
        return {
            "jobs_in": self.jobs_in,
            "batches_out": self.batches_out,
            "coalesced": self.coalesced,
            "pending": sum(len(jobs) for jobs in self._pending.values()),
        }
