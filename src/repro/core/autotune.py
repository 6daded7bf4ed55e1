"""Automatic selection of the *number* of processes (HeteroMPI direction).

The paper's ``HMPI_Group_create`` optimises *which* processes execute an
algorithm for a fixed process count; its Figure 8 program already shows
the companion pattern — sweeping an algorithm parameter with
``HMPI_Timeof``.  The follow-on HeteroMPI work generalised this into
automatic group sizing (``HMPI_Group_auto_create``): sometimes fewer
processes are faster (communication dominates) and sometimes more are
(computation dominates), and the runtime can find out by prediction alone.

This module provides that extension: given a *model family* — a function
``p -> AbstractBoundModel`` describing the same algorithm run with ``p``
processes — :func:`tune_group_size` evaluates the predicted execution
time of the best group for every feasible ``p`` and returns the winner;
:meth:`HMPI.group_auto_create`-style usage is wrapped by
:func:`auto_create`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from ..perfmodel.model import AbstractBoundModel
from ..util.errors import MappingError
from .mapper import Mapper, Mapping
from .runtime import HMPI, HOST_RANK

__all__ = ["SizeSweepResult", "tune_group_size", "auto_create"]

ModelFamily = Callable[[int], AbstractBoundModel]


@dataclass
class SizeSweepResult:
    """Outcome of a group-size sweep."""

    best_p: int
    best_model: AbstractBoundModel
    best_mapping: Mapping
    predictions: dict[int, float]  # p -> predicted time

    @property
    def best_time(self) -> float:
        return self.predictions[self.best_p]


def tune_group_size(
    hmpi: HMPI,
    family: ModelFamily,
    sizes: Iterable[int],
    mapper: "Mapper | str | None" = None,
) -> SizeSweepResult:
    """Predict the best process count for an algorithm family.

    Local operation (like ``HMPI_Timeof``): for each candidate ``p`` the
    model is built, the selection problem solved against the current
    network model, and the predicted time recorded.  Candidates larger
    than the available process pool are skipped; if none fit, raises.
    ``mapper`` may be an instance or a registry string.
    """
    available = len(hmpi.state.participants())
    predictions: dict[int, float] = {}
    best: tuple[int, AbstractBoundModel, Mapping] | None = None
    for p in sizes:
        if p < 1 or p > available:
            continue
        model = family(p)
        if model.nproc != p:
            raise MappingError(
                f"model family returned nproc={model.nproc} for p={p}"
            )
        mapping = hmpi.state.select(model, mapper)
        predictions[p] = mapping.time
        if best is None or mapping.time < best[2].time:
            best = (p, model, mapping)
    if best is None:
        raise MappingError(
            f"no candidate size fits the available {available} processes"
        )
    return SizeSweepResult(
        best_p=best[0], best_model=best[1], best_mapping=best[2],
        predictions=predictions,
    )


def auto_create(
    hmpi: HMPI,
    family: ModelFamily,
    sizes: Iterable[int],
    mapper: "Mapper | str | None" = None,
):
    """Collective: size sweep on the host, then ``group_create`` the winner.

    Must be called by **every** world process with the same ``family`` and
    ``sizes`` (the winning size travels over a world broadcast), i.e. at a
    point where no other HMPI group is active — the situation of both
    paper programs.  Returns ``(group, best_p)``.
    """
    sizes = list(sizes)
    if hmpi.is_host():
        sweep = tune_group_size(hmpi, family, sizes, mapper)
        best_p = sweep.best_p
    else:
        best_p = None
    best_p = hmpi.comm_world.bcast(best_p, root=HOST_RANK)
    group = hmpi.group_create(family(best_p), mapper)
    return group, best_p
