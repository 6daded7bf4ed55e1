"""External-load models for multi-user machines.

The paper's third HNOC challenge is that machines are *multi-user and
decentralized*: the speed a parallel application actually obtains from a
workstation varies with whatever else its owner is running.  A load model
captures that as a piecewise-constant **CPU share** in ``(0, 1]`` as a
function of virtual time: share 1.0 means the machine is fully ours, share
0.25 means external jobs take three quarters of it.

All models are piecewise-constant so that compute-time integration (in
:mod:`repro.cluster.machine`) is exact: a model exposes ``share_at(t)`` and
``next_change_after(t)``, and the integrator walks the change points.
Stochastic models are deterministic functions of their seed.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from collections.abc import Sequence

from ..util.rng import make_rng
from ..util.validate import check_positive

__all__ = [
    "LoadModel",
    "ConstantLoad",
    "StepLoad",
    "SquareWaveLoad",
    "RandomWalkLoad",
    "DiurnalLoad",
    "DIURNAL_PROFILE",
    "NO_LOAD",
]

_MIN_SHARE = 1e-6


class LoadModel(ABC):
    """Piecewise-constant CPU-share profile over virtual time."""

    @abstractmethod
    def share_at(self, t: float) -> float:
        """CPU share available to the application at virtual time ``t``."""

    @abstractmethod
    def next_change_after(self, t: float) -> float:
        """First virtual time strictly after ``t`` where the share changes.

        Returns ``math.inf`` if the share is constant from ``t`` on.
        """

    def mean_share(self, t0: float, t1: float) -> float:
        """Time-average of the share over ``[t0, t1]`` (exact for p.w.c.)."""
        if t1 <= t0:
            return self.share_at(t0)
        total = 0.0
        t = t0
        while t < t1:
            nxt = min(self.next_change_after(t), t1)
            total += self.share_at(t) * (nxt - t)
            t = nxt
        return total / (t1 - t0)


class ConstantLoad(LoadModel):
    """A fixed CPU share — the default (share=1.0) models a dedicated machine."""

    def __init__(self, share: float = 1.0):
        if not 0.0 < share <= 1.0:
            raise ValueError(f"share must be in (0, 1], got {share}")
        self.share = share

    def share_at(self, t: float) -> float:
        return self.share

    def next_change_after(self, t: float) -> float:
        return math.inf

    def __repr__(self) -> str:
        return f"ConstantLoad({self.share})"


NO_LOAD = ConstantLoad(1.0)


class StepLoad(LoadModel):
    """An explicit schedule ``[(t0, share0), (t1, share1), ...]``.

    The share before the first breakpoint is ``initial`` (default 1.0).
    Breakpoints must be strictly increasing.
    """

    def __init__(self, steps: Sequence[tuple[float, float]], initial: float = 1.0):
        times = [t for t, _ in steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("StepLoad breakpoints must be strictly increasing")
        for _, s in steps:
            if not 0.0 < s <= 1.0:
                raise ValueError(f"share must be in (0, 1], got {s}")
        if not 0.0 < initial <= 1.0:
            raise ValueError(f"initial share must be in (0, 1], got {initial}")
        self.steps = [(t, s) for t, s in steps]
        self._times = list(times)
        self._shares = [s for _, s in steps]
        self.initial = initial

    def share_at(self, t: float) -> float:
        i = bisect_right(self._times, t)
        return self.initial if i == 0 else self._shares[i - 1]

    def next_change_after(self, t: float) -> float:
        i = bisect_right(self._times, t)
        return self._times[i] if i < len(self._times) else math.inf


class SquareWaveLoad(LoadModel):
    """Alternates between ``high`` and ``low`` share with a fixed period.

    Models a periodic external job (e.g. a nightly build or a user who works
    in bursts).  The first half-period has share ``high``.
    """

    def __init__(self, period: float, high: float = 1.0, low: float = 0.5, phase: float = 0.0):
        check_positive(period, "period")
        for name, s in (("high", high), ("low", low)):
            if not 0.0 < s <= 1.0:
                raise ValueError(f"{name} share must be in (0, 1], got {s}")
        self.period = period
        self.high = high
        self.low = low
        self.phase = phase

    def _half_index(self, t: float) -> int:
        return int(math.floor(2.0 * (t + self.phase) / self.period))

    def share_at(self, t: float) -> float:
        return self.high if self._half_index(t) % 2 == 0 else self.low

    def next_change_after(self, t: float) -> float:
        half = self.period / 2.0
        k = self._half_index(t) + 1
        boundary = k * half - self.phase
        # Guard against t sitting exactly on a boundary due to float fuzz.
        while boundary <= t:
            k += 1
            boundary = k * half - self.phase
        return boundary


class RandomWalkLoad(LoadModel):
    """Share follows a bounded random walk, re-drawn every ``interval``.

    Deterministic given ``seed``: segment ``k`` covers
    ``[k*interval, (k+1)*interval)`` and its share is produced by a lazily
    extended walk.  The walk starts at ``start`` and each step adds a uniform
    draw in ``[-step, step]``, clamped to ``[floor, 1.0]``.
    """

    def __init__(
        self,
        interval: float,
        seed: int,
        start: float = 1.0,
        step: float = 0.2,
        floor: float = 0.05,
    ):
        check_positive(interval, "interval")
        if not 0.0 < start <= 1.0:
            raise ValueError(f"start share must be in (0, 1], got {start}")
        if not 0.0 < floor <= 1.0:
            raise ValueError(f"floor must be in (0, 1], got {floor}")
        self.interval = interval
        self.seed = seed
        self.start = start
        self.step = step
        self.floor = floor
        self._rng = make_rng(seed)
        self._shares = [start]

    def _extend_to(self, k: int) -> None:
        while len(self._shares) <= k:
            prev = self._shares[-1]
            delta = float(self._rng.uniform(-self.step, self.step))
            self._shares.append(min(1.0, max(self.floor, prev + delta)))

    def share_at(self, t: float) -> float:
        k = max(0, int(math.floor(t / self.interval)))
        self._extend_to(k)
        return max(_MIN_SHARE, self._shares[k])

    def next_change_after(self, t: float) -> float:
        k = max(0, int(math.floor(t / self.interval)))
        boundary = (k + 1) * self.interval
        while boundary <= t:
            k += 1
            boundary = (k + 1) * self.interval
        return boundary


#: Default diurnal profile: fraction-of-day -> share.  Nearly idle
#: workstations overnight, contended through office hours, easing off in
#: the evening — the classic shape of the paper's multi-user HNOC.
DIURNAL_PROFILE = (
    (0.0, 0.95),        # 00:00  overnight, machine almost dedicated
    (1.0 / 3.0, 0.40),  # 08:00  owners arrive
    (0.5, 0.25),        # 12:00  peak interactive load
    (0.75, 0.55),       # 18:00  evening tail
    (11.0 / 12.0, 0.85),  # 22:00  winding down
)


class DiurnalLoad(LoadModel):
    """A daily cycle of external load (the multi-user workstation day).

    ``profile`` maps fractions of the day (in ``[0, 1)``, first entry
    must be 0.0 so the whole cycle is covered) to CPU shares; the share
    holds until the next breakpoint and the profile repeats every
    ``day`` virtual-time units.  ``phase`` shifts where in the day
    ``t=0`` falls (``phase=0.5`` starts a run at noon).

    Piecewise-constant like every load model, so compute-time
    integration stays exact, and purely deterministic — a natural demo
    workload for live campaign ETAs, where the same cell is reproducible
    but runs predictably slower at simulated midday.
    """

    def __init__(self, day: float = 24.0,
                 profile: Sequence[tuple[float, float]] = DIURNAL_PROFILE,
                 phase: float = 0.0):
        check_positive(day, "day")
        profile = [(float(f), float(s)) for f, s in profile]
        if not profile or profile[0][0] != 0.0:
            raise ValueError(
                "diurnal profile must start at day-fraction 0.0")
        fracs = [f for f, _ in profile]
        if any(b <= a for a, b in zip(fracs, fracs[1:])) or fracs[-1] >= 1.0:
            raise ValueError(
                "diurnal profile fractions must be strictly increasing "
                "and < 1.0")
        for _, s in profile:
            if not 0.0 < s <= 1.0:
                raise ValueError(f"share must be in (0, 1], got {s}")
        self.day = float(day)
        self.phase = float(phase)
        self.profile = profile
        self._fracs = fracs
        self._shares = [s for _, s in profile]

    def _day_fraction(self, t: float) -> float:
        frac = (t / self.day + self.phase) % 1.0
        # Snap onto the breakpoint lattice: for t exactly on a boundary,
        # t/day can land an ulp *below* the stored fraction and misfile
        # the query into the previous segment.
        i = bisect_right(self._fracs, frac)
        if i < len(self._fracs) and self._fracs[i] - frac < 1e-9:
            frac = self._fracs[i]
        return frac

    def share_at(self, t: float) -> float:
        i = bisect_right(self._fracs, self._day_fraction(t))
        # i >= 1 always: the profile starts at 0.0 and fractions are >= 0.
        return self._shares[i - 1]

    def next_change_after(self, t: float) -> float:
        if len(self._fracs) == 1:
            return math.inf  # single segment: the share never changes
        pos = t / self.day + self.phase  # absolute position, in days
        day_idx = math.floor(pos)
        i = bisect_right(self._fracs, pos - day_idx)
        while True:
            if i >= len(self._fracs):
                day_idx += 1
                i = 0
            boundary = (day_idx + self._fracs[i] - self.phase) * self.day
            if boundary > t:  # strict: skip float-fuzz landings at t
                return boundary
            i += 1

    def __repr__(self) -> str:
        return (f"DiurnalLoad(day={self.day}, phase={self.phase}, "
                f"{len(self._fracs)} breakpoints)")
