"""Execution backends: sharded worker processes (or inline threads).

The accept loop never computes — every batch is handed to a *lane* and
the result comes back via a thread-safe callback into the event loop.
Two backends share that contract:

``workers >= 1`` — ``multiprocessing`` (spawn) worker processes, one
    inbox queue each and a shared outbox drained by a collector thread.
    Spawn (not fork) because the server process runs threads and an
    asyncio loop; forking that is unsafe.
``workers == 0`` — inline mode: the same sharded-lane structure built
    from daemon threads in-process.  Used by tests and single-machine
    deployments; no pickling, no process startup.

Worlds are *sharded*: a batch is routed to a lane by the stable hash of
its world digest, so all traffic for one cluster lands on the same lane
and shares that lane's caches (network model, selection cache, compiled
models), while other worlds proceed in parallel — a slow world cannot
block an unrelated one.  Each lane owns a private
:class:`~repro.serve.exec.Executor`; nothing is shared across lanes, so
there is no cross-process cache-coherence problem to solve.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
import time
from typing import Any, Callable

from .exec import Executor
from .protocol import JobRequest, ServeError

__all__ = ["WorkerPool", "execute_payload", "request_from_dict"]


def request_from_dict(d: dict[str, Any]) -> JobRequest:
    """Rebuild a (pre-validated) request shipped to a worker."""
    return JobRequest(**d)


def execute_payload(executor: Executor, payload: dict[str, Any]) -> list[dict]:
    """Run one task payload; one outcome dict per job, in order.

    A ``batch`` payload executes each member against the lane's caches —
    the first member pays the evaluation, coalesced members hit the
    world's selection cache.  A ``trace`` payload exports the Chrome
    trace of one selection job.
    """
    outcomes: list[dict] = []
    kind = payload.get("kind", "batch")
    for d in payload["requests"]:
        req = request_from_dict(d)
        try:
            if kind == "trace":
                outcomes.append({"ok": executor.trace(req)})
            else:
                outcomes.append({"ok": executor.execute(req)})
        except ServeError as exc:
            outcomes.append({"error": str(exc), "status": exc.status})
        except Exception as exc:  # worker must never die on one bad job
            outcomes.append(
                {"error": f"{type(exc).__name__}: {exc}", "status": 500})
    return outcomes


def _worker_main(inbox: Any, outbox: Any) -> None:
    """Worker-process loop: drain inbox until the ``None`` sentinel."""
    executor = Executor()
    while True:
        task = inbox.get()
        if task is None:
            break
        task_id, payload = task
        try:
            outcomes = execute_payload(executor, payload)
        except Exception as exc:  # pragma: no cover - belt and braces
            outcomes = [{"error": f"{type(exc).__name__}: {exc}",
                         "status": 500}] * len(payload.get("requests", ()))
        outbox.put((task_id, outcomes))


class _InlineLane:
    """One in-process lane: a daemon thread over a private Executor."""

    def __init__(self, index: int, outbox: "queue.Queue") -> None:
        self.inbox: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(
            target=self._run, args=(outbox,),
            name=f"repro-serve-lane-{index}", daemon=True)
        self._thread.start()

    def _run(self, outbox: "queue.Queue") -> None:
        executor = Executor()
        while True:
            task = self.inbox.get()
            if task is None:
                break
            task_id, payload = task
            outbox.put((task_id, execute_payload(executor, payload)))


class WorkerPool:
    """Sharded lanes with a single result callback.

    ``on_result(task_id, outcomes)`` is invoked from the collector
    thread — callers running an event loop should wrap it with
    ``loop.call_soon_threadsafe``.
    """

    def __init__(self, workers: int = 0, *,
                 on_result: Callable[[str, list[dict]], None]):
        self.workers = workers
        self.on_result = on_result
        self._procs: list[Any] = []
        self._inboxes: list[Any] = []
        self._stopped = False
        self._pending: dict[str, tuple[int, int]] = {}  # task -> (lane, njobs)
        self._lock = threading.Lock()
        self._watchdog: threading.Thread | None = None
        if workers >= 1:
            self._ctx = mp.get_context("spawn")
            self._outbox: Any = self._ctx.Queue()
            for i in range(workers):
                self._spawn_lane(i)
            self.nlanes = workers
            self._watchdog = threading.Thread(
                target=self._watch, name="repro-serve-watchdog", daemon=True)
            self._watchdog.start()
        else:
            self._outbox = queue.Queue()
            nlanes = 4
            self._inboxes = [_InlineLane(i, self._outbox).inbox
                             for i in range(nlanes)]
            self.nlanes = nlanes
        self._collector = threading.Thread(
            target=self._collect, name="repro-serve-collector", daemon=True)
        self._collector.start()

    def _spawn_lane(self, i: int) -> None:
        inbox = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main, args=(inbox, self._outbox),
            name=f"repro-serve-worker-{i}", daemon=True)
        proc.start()
        if i < len(self._inboxes):
            self._inboxes[i] = inbox
            self._procs[i] = proc
        else:
            self._inboxes.append(inbox)
            self._procs.append(proc)

    # ------------------------------------------------------------------
    def lane_of(self, shard_key: str) -> int:
        """Stable shard routing: one world, one lane, shared caches."""
        return int(shard_key[:16] or "0", 16) % self.nlanes

    def submit(self, task_id: str, shard_key: str,
               payload: dict[str, Any]) -> None:
        lane = self.lane_of(shard_key)
        with self._lock:
            self._pending[task_id] = (lane, len(payload.get("requests", ())))
        self._inboxes[lane].put((task_id, payload))

    def _collect(self) -> None:
        while True:
            item = self._outbox.get()
            if item is None:
                break
            task_id, outcomes = item
            with self._lock:
                self._pending.pop(task_id, None)
            self.on_result(task_id, outcomes)

    def _watch(self) -> None:
        """Fail in-flight tasks of a dead worker process and respawn it.

        A worker killed mid-job (OOM, segfault in a native lib) must not
        strand its jobs until their waits expire — they error out
        immediately and the lane comes back for new traffic.
        """
        while not self._stopped:
            time.sleep(0.25)
            for i, proc in enumerate(self._procs):
                if self._stopped or proc.is_alive():
                    continue
                with self._lock:
                    dead = [(tid, n) for tid, (lane, n) in
                            self._pending.items() if lane == i]
                    for tid, _ in dead:
                        del self._pending[tid]
                self._spawn_lane(i)
                for tid, n in dead:
                    self.on_result(tid, [{
                        "error": "worker process died while executing",
                        "status": 500,
                    }] * max(n, 1))

    # ------------------------------------------------------------------
    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover
                proc.terminate()
        self._outbox.put(None)
        self._collector.join(timeout=5.0)
