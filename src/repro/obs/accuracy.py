"""Prediction-accuracy tracking: ``HMPI_Timeof`` vs what actually ran.

The paper's selling point is that the runtime *predicts* execution times
well enough to pick the fastest group.  This module closes the loop at
run time: every selection records its predicted time here (keyed by the
performance model's name), applications report the engine-measured
execution time of the corresponding region, and :meth:`report` reduces
the pairs to per-model error distributions — count, mean/max relative
error, bias direction — that ``repro trace`` prints and
EXPERIMENTS.md tabulates.

Pairing is LIFO per key: a measurement of ``key`` resolves the *most
recent* unresolved prediction of ``key``.  That matches how the drivers
work — a ``Timeof`` sweep prices many parameter choices under the same
model name, then ``HMPI_Group_create`` records the prediction for the
chosen one just before the region runs — so the latest prediction is the
one the measured execution corresponds to.  Older sweep predictions
simply stay unresolved and are reported as such.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any

from ..perfmodel.model import model_key

__all__ = ["PredictionRecord", "PredictionTracker", "model_key"]


@dataclass
class PredictionRecord:
    """One prediction, optionally resolved by a measurement."""

    key: str
    predicted: float
    vtime: float
    mapper: str = ""
    measured: float | None = None

    @property
    def resolved(self) -> bool:
        return self.measured is not None

    @property
    def rel_error(self) -> float | None:
        """Signed relative error (predicted - measured) / measured."""
        if self.measured is None or self.measured == 0.0:
            return None
        return (self.predicted - self.measured) / self.measured

    def as_dict(self) -> dict[str, Any]:
        return {
            "key": self.key, "predicted": self.predicted,
            "measured": self.measured, "vtime": self.vtime,
            "mapper": self.mapper, "rel_error": self.rel_error,
        }


class PredictionTracker:
    """Collects predictions and measurements; reduces to error stats."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.records: list[PredictionRecord] = []
        # key -> indices of still-unresolved predictions; measure() pops
        # the newest (LIFO), see module docstring.
        self._pending: dict[str, list[int]] = {}

    def predict(self, key: str, seconds: float, vtime: float = 0.0,
                mapper: str = "") -> PredictionRecord:
        """Record one predicted execution time for ``key``."""
        rec = PredictionRecord(key=key, predicted=seconds, vtime=vtime,
                               mapper=mapper)
        with self._lock:
            self._pending.setdefault(key, []).append(len(self.records))
            self.records.append(rec)
        return rec

    def measure(self, key: str, seconds: float) -> PredictionRecord | None:
        """Resolve the newest unresolved prediction of ``key``.

        Returns the resolved record, or None when no prediction of that
        key is outstanding (the measurement is then recorded on its own,
        with no predicted value to compare against — visible in the
        report as an unpredicted run rather than silently dropped).
        """
        with self._lock:
            queue = self._pending.get(key)
            if queue:
                rec = self.records[queue.pop()]
                rec.measured = seconds
                return rec
            rec = PredictionRecord(key=key, predicted=float("nan"),
                                   vtime=0.0, measured=seconds)
            self.records.append(rec)
            return None

    # -- reporting ------------------------------------------------------
    def pairs(self, key: str | None = None) -> list[PredictionRecord]:
        """Resolved prediction/measurement pairs (optionally one key)."""
        with self._lock:
            return [r for r in self.records
                    if r.resolved and r.predicted == r.predicted
                    and (key is None or r.key == key)]

    def report(self) -> dict[str, dict[str, Any]]:
        """Per-key error distribution over the resolved pairs."""
        out: dict[str, dict[str, Any]] = {}
        with self._lock:
            records = list(self.records)
        keys = sorted({r.key for r in records})
        for key in keys:
            mine = [r for r in records if r.key == key]
            pairs = [r for r in mine
                     if r.resolved and r.predicted == r.predicted]
            errors = [r.rel_error for r in pairs if r.rel_error is not None]
            abs_errors = [abs(e) for e in errors]
            out[key] = {
                "predictions": sum(1 for r in mine
                                   if r.predicted == r.predicted),
                "measured": len(pairs),
                "mean_abs_rel_error": (sum(abs_errors) / len(abs_errors)
                                       if abs_errors else None),
                "max_abs_rel_error": max(abs_errors) if abs_errors else None,
                "mean_rel_error": (sum(errors) / len(errors)
                                   if errors else None),
            }
        return out

    def to_json(self, indent: int | None = 2) -> str:
        with self._lock:
            records = [r.as_dict() for r in self.records]
        return json.dumps({"records": records, "report": self.report()},
                          indent=indent)

    def render(self) -> str:
        """Text table of the per-model report."""
        from ..util.tables import Table

        t = Table("model", "predictions", "measured runs",
                  "mean |rel err|", "max |rel err|", "bias",
                  title="Timeof prediction accuracy")
        for key, row in self.report().items():
            def fmt(x: float | None, signed: bool = False) -> str:
                if x is None:
                    return "-"
                return f"{x:+.2%}" if signed else f"{x:.2%}"
            t.add(key, row["predictions"], row["measured"],
                  fmt(row["mean_abs_rel_error"]),
                  fmt(row["max_abs_rel_error"]),
                  fmt(row["mean_rel_error"], signed=True))
        return t.render()

    def __len__(self) -> int:
        with self._lock:
            return len(self.records)
