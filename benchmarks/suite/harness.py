"""Measurement plumbing shared by the workloads and the layer probes.

Nothing here imports ``repro``: the span recorder, the statistics and the
timed loop are the benchmark's own, so the numbers they produce cannot
change when the program under test does.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

SUITE_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
INPUTS = SUITE_DIR / "inputs"
OUT_DIR = SUITE_DIR / "out"

LAYERS = ("perfmodel", "core", "mpi", "cluster", "apps", "campaign",
          "serve", "obs")

pc = time.perf_counter


# ----------------------------------------------------------------------
# span recorder
# ----------------------------------------------------------------------

class SpanRecorder:
    """In-memory spans: name, layer, start, end, parent span, op id.

    Spans are recorded from the benchmark's side of each call into a
    layer.  ``enabled`` is flipped per round, so the same workload code
    runs traced and untraced.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, layer: str, start: float, end: float,
            op: int | None = None, parent: int | None = None) -> int:
        """Record a finished span with explicit times; returns its id."""
        with self._lock:
            sid = len(self.spans)
            self.spans.append({
                "id": sid, "name": name, "layer": layer, "start": start,
                "end": end, "parent": parent, "op": op,
                "tid": threading.current_thread().name})
        return sid

    @contextmanager
    def span(self, name: str, layer: str, op: int | None = None):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        sid = self.add(name, layer, pc(), float("nan"), op, parent)
        stack.append(sid)
        try:
            yield
        finally:
            self.spans[sid]["end"] = pc()
            stack.pop()

    def self_time_by_layer(self, first_span: int = 0,
                           last_span: int | None = None) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        spans = self.spans[first_span:last_span]
        child = dict.fromkeys((s["id"] for s in spans), 0.0)
        for s in spans:
            if s["parent"] in child:
                child[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for s in spans:
            out[s["layer"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def chrome_trace(self) -> dict:
        """Chrome trace-event document (complete events, microseconds)."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        tids = {t: i for i, t in
                enumerate(sorted({s["tid"] for s in self.spans}), 1)}
        events = [{"ph": "M", "pid": 1, "tid": i, "name": "thread_name",
                   "args": {"name": t}} for t, i in tids.items()]
        for s in self.spans:
            events.append({
                "ph": "X", "pid": 1, "tid": tids[s["tid"]],
                "name": s["name"], "cat": s["layer"],
                "ts": (s["start"] - t0) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"],
                         "op": s["op"]}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def timed(rec: SpanRecorder, name: str, layer: str, fn, *,
          reps: int = 5, inner: int = 1) -> float:
    """Median seconds of one ``fn()`` call, each repetition one span.

    ``inner`` calls share a span so that sub-microsecond functions are
    timed over a loop rather than against the clock's resolution.  Each
    repetition starts from a collected heap: the engine allocates a thread
    and a few objects per rank, so without this the cyclic collector lands
    on every other run and two alternated variants see different costs.
    """
    samples = []
    for _ in range(reps):
        gc.collect()
        with rec.span(name, layer):
            t0 = pc()
            for _ in range(inner):
                fn()
            samples.append((pc() - t0) / inner)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation across op classes)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(q2) if q2 else float("inf")


# ----------------------------------------------------------------------
# process-level helpers
# ----------------------------------------------------------------------

#: CPUs this process may use before any pinning (empty without affinity).
ALL_CPUS = (frozenset(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else frozenset())


def pin_to_one_cpu() -> int | None:
    """Pin this process (and its future children) to one allowed CPU.

    The event engine runs exactly one rank task at a time over OS
    threads; left unpinned on a 2-core box the kernel bounces the
    hand-offs across cores, which costs 2.5-3.5x (``mpi.ring_unpinned_*``
    keeps that visible) and makes wall time bimodal.  The serve workloads
    are closed loops that one core saturates equally well (145 req/s
    pinned and unpinned), so they are pinned too and noise on the other
    core cannot reach them.  Returns the CPU, or None if the platform has
    no affinity call.
    """
    try:
        cpu = min(ALL_CPUS)
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError, ValueError):
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def env_block() -> dict:
    """Where the numbers were taken (ends up in every output)."""
    import numpy

    commit = "unknown"
    if (REPO_ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def load_benchmark_json() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def setup_in_child(workload: str, seed: int, timeout: float = 120.0) -> float:
    """Set-up seconds of a fresh process doing the same set-up.

    Set-up can only be repeated faithfully from a cold interpreter
    (imports, lazy caches), so the repeats are child processes.  They run
    under the caller's supervisor (``--inner``); if the caller is stopped
    they are asked to stop, not killed, so that they tear down their
    server and its worker.
    """
    proc = subprocess.Popen(
        [sys.executable, str(SUITE_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only", "--inner"],
        stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.terminate()
        proc.wait()
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


# ----------------------------------------------------------------------
# supervision: nothing the benchmark starts outlives it
# ----------------------------------------------------------------------

PR_SET_PDEATHSIG, PR_SET_CHILD_SUBREAPER = 1, 36


def _prctl(option: int, value: int) -> bool:
    try:
        import ctypes

        return ctypes.CDLL(None, use_errno=True).prctl(
            option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def die_with_parent() -> None:
    """Unwind (``finally`` blocks, ``atexit``) if the parent dies.

    Even a supervisor killed by SIGKILL then takes the workload with it:
    the server is stopped and ``multiprocessing`` ends its worker.
    """
    def stop(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    _prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def _children() -> list[int]:
    """Pids whose parent is this process (field 4 of ``/proc/<pid>/stat``)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = pathlib.Path("/proc", entry, "stat").read_text()
                if int(stat.rpartition(")")[2].split()[1]) == me:
                    pids.append(int(entry))
            except (OSError, ValueError, IndexError):
                pass
    return pids


def run_supervised(cmd: list[str], grace: float = 5.0) -> int:
    """Run ``cmd`` and return only when every process it started is gone.

    The serve workloads spawn a worker process, and ``multiprocessing``
    adds a resource-tracker process that ends only after its parent has:
    orphaned, it lingers as a zombie wherever PID 1 does not reap (seen
    here after ``serve_miss``).  So the command runs under a supervisor
    that is a child sub-reaper: orphans are re-parented to it, and it
    waits for each one.  What is still alive ``grace`` seconds after the
    command itself has ended is killed — at once if the supervisor is
    told to stop.  Killing a child hands its children to the supervisor,
    so the loop ends with no descendant left.  Everything stays in the
    caller's process group: a caller that kills the group gets them all.
    """
    _prctl(PR_SET_CHILD_SUBREAPER, 1)

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    proc = subprocess.Popen(cmd)
    clean = False
    try:
        code = proc.wait()
        clean = True
        return code
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(sig, signal.SIG_IGN)  # finish the clean-up
        deadline = pc() + (grace if clean else 0.0)
        while True:
            try:  # reap whatever has ended, ours or re-parented
                while os.waitpid(-1, os.WNOHANG) != (0, 0):
                    pass
            except ChildProcessError:
                break  # no child left, so no descendant either
            if pc() >= deadline:
                for pid in _children():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.005)
