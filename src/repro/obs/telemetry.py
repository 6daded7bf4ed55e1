"""Streaming telemetry: a schema-versioned structured event bus.

Where the :class:`~repro.obs.metrics.MetricsRegistry` aggregates (one
number per series), the :class:`EventBus` *streams*: every emit is a
discrete, timestamped, JSON-able record that can be tailed live while a
simulation or campaign is still running.  The bus is deliberately small:

- a **bounded ring buffer** (`collections.deque(maxlen=...)`) so a
  long campaign cannot grow memory without bound — `tail(n)` serves the
  monitoring endpoint's ``/events`` NDJSON view;
- an optional **JSONL sink** (path or file-like) for durable capture,
  one compact sorted-key object per line;
- **subscriber callbacks** for live consumers (the ``--live`` status
  line, progress gauges); a subscriber that raises is counted and
  skipped, never allowed to break the emitting hot path;
- **per-category sampling** — ``sample={"selection": 100}`` keeps one
  in every 100 ``selection.*`` events, taming hot paths like the
  selection cache without losing rare categories like faults.

Events carry *wall-clock* time (``wall``): telemetry is the host-side
side channel, deliberately distinct from virtual time, and must stay
out of canonical campaign results (rows are a pure function of
``(config, seed)``).  The clock is injectable for deterministic tests.

Disabled mode is an ``is None`` check at each instrumentation site —
the same budget the metrics layer is held to (the benchmark suite's
``obs.enabled_overhead_pct`` probe measures the enabled cost).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable, IO

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryEvent",
    "EventBus",
]

#: Version of the event record shape.  Bump whenever the field set of
#: :meth:`TelemetryEvent.to_dict` changes; consumers of the JSONL sink
#: and the ``/events`` endpoint key their parsers off this.
TELEMETRY_SCHEMA_VERSION = 1

#: Envelope fields of the flattened record — payload keys may not shadow
#: them (``emit`` rejects collisions so a JSONL line is never ambiguous).
_RESERVED_KEYS = frozenset({"schema", "seq", "category", "name", "wall"})


class TelemetryEvent:
    """One structured occurrence: ``(seq, category, name, wall, payload)``.

    ``category`` groups related events for sampling and filtering
    (``engine``, ``fault``, ``selection``, ``campaign``); ``name`` is
    the specific occurrence (``run.start``, ``rank_dead``, ``cell.finish``).
    ``payload`` is a flat JSON-able dict of event-specific fields.
    """

    __slots__ = ("seq", "category", "name", "wall", "payload")

    def __init__(self, seq: int, category: str, name: str, wall: float,
                 payload: dict[str, Any]):
        self.seq = seq
        self.category = category
        self.name = name
        self.wall = wall
        self.payload = payload

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "seq": self.seq,
            "category": self.category,
            "name": self.name,
            "wall": self.wall,
            **self.payload,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"), default=str)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TelemetryEvent({self.seq}, {self.category}.{self.name}, "
                f"wall={self.wall:.3f})")


class EventBus:
    """Thread-safe bounded event stream with sink, subscribers, sampling.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the newest ``capacity`` events are retained
        for :meth:`tail`.
    sink:
        Path or open text file to append one JSON line per event
        (flushed per line so a tail-follower sees events promptly).
    sample:
        ``{category: N}`` — keep every N-th event of that category
        (1 = keep all).  Unlisted categories are never sampled out.
    clock:
        0-arg callable returning the wall timestamp; injectable so
        tests can be deterministic.  Defaults to :func:`time.time`.
    """

    def __init__(self, capacity: int = 1024,
                 sink: "str | IO[str] | None" = None,
                 sample: dict[str, int] | None = None,
                 clock: Callable[[], float] = time.time):
        if capacity < 1:
            raise ValueError(f"EventBus capacity must be >= 1, got {capacity}")
        for cat, n in (sample or {}).items():
            if not isinstance(n, int) or n < 1:
                raise ValueError(
                    f"sample rate for {cat!r} must be an int >= 1, got {n!r}")
        self._lock = threading.Lock()
        self._ring: deque[TelemetryEvent] = deque(maxlen=capacity)
        self._subscribers: list[Callable[[TelemetryEvent], None]] = []
        self._sample = dict(sample or {})
        self._seen: dict[str, int] = {}
        self._clock = clock
        self._seq = 0
        self.emitted = 0            # events that entered the ring
        self.sampled_out = 0        # dropped by per-category sampling
        self.dropped = 0            # evicted from the ring by capacity
        self.subscriber_errors = 0  # callbacks that raised (and were skipped)
        self._sink: IO[str] | None
        self._owns_sink = isinstance(sink, str)
        if isinstance(sink, str):
            self._sink = open(sink, "a", encoding="utf-8")
        else:
            self._sink = sink

    # -- emission --------------------------------------------------------
    def emit(self, category: str, name: str, /, **payload: Any) -> "TelemetryEvent | None":
        """Record one event; returns it, or None if sampled out."""
        clash = _RESERVED_KEYS.intersection(payload)
        if clash:
            raise ValueError(
                f"payload keys {sorted(clash)} shadow event envelope fields")
        with self._lock:
            rate = self._sample.get(category, 1)
            if rate > 1:
                seen = self._seen.get(category, 0)
                self._seen[category] = seen + 1
                if seen % rate:
                    self.sampled_out += 1
                    return None
            self._seq += 1
            event = TelemetryEvent(self._seq, category, name,
                                   self._clock(), payload)
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(event)
            self.emitted += 1
            if self._sink is not None:
                self._sink.write(event.to_json() + "\n")
                self._sink.flush()
            subscribers = list(self._subscribers)
        for callback in subscribers:
            try:
                callback(event)
            except Exception:
                with self._lock:
                    self.subscriber_errors += 1
        return event

    # -- consumption -----------------------------------------------------
    def subscribe(self, callback: Callable[[TelemetryEvent], None]) -> None:
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[TelemetryEvent], None]) -> None:
        with self._lock:
            self._subscribers.remove(callback)

    def tail(self, n: int | None = None) -> list[TelemetryEvent]:
        """The newest ``n`` retained events, oldest first (all if None)."""
        with self._lock:
            events = list(self._ring)
        if n is not None and n >= 0:
            events = events[len(events) - min(n, len(events)):]
        return events

    def stats(self) -> dict[str, Any]:
        """Bus health: throughput counters + current retention."""
        with self._lock:
            return {
                "schema": TELEMETRY_SCHEMA_VERSION,
                "emitted": self.emitted,
                "sampled_out": self.sampled_out,
                "dropped": self.dropped,
                "subscriber_errors": self.subscriber_errors,
                "retained": len(self._ring),
                "capacity": self._ring.maxlen,
            }

    def close(self) -> None:
        """Flush and close an owned sink (no-op for caller-owned files)."""
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                if self._owns_sink:
                    self._sink.close()
                self._sink = None

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)
