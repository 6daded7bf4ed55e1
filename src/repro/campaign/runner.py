"""Execute a campaign: every cell through its driver, into results.

The runner is deliberately dumb: expansion and seeding live in
:mod:`repro.campaign.config`, scenario construction in the drivers.  It
walks the expanded runs in order, gives each its own
``np.random.default_rng(spec.seed)`` stream, and records one result row
per run.  A run that ends in a typed library error
(:class:`~repro.util.errors.ReproError`) becomes a ``status="error"``
row naming the exception — the campaign completes with a typed result
for every cell, never a crash half-way through the sweep.

Live progress goes to the **telemetry side channel** only: pass an
:class:`~repro.obs.telemetry.EventBus` and the runner streams
``campaign.start`` / ``cell.start`` / ``cell.finish`` (with per-cell
wall time, done/total counts and an ETA extrapolated from completed
cells) / ``campaign.finish`` events.  Wall-clock data never enters the
:class:`ResultsWriter` — result rows stay a pure function of
``(config, seed)``, bitwise-reproducible with or without a telemetry
bus attached.
"""

from __future__ import annotations

import time

import numpy as np

from ..util.errors import ReproError
from .config import CampaignConfig, RunSpec
from .drivers import resolve_driver
from .results import ResultsWriter

__all__ = ["run_campaign", "run_one"]


def run_one(config: CampaignConfig, spec: RunSpec, obs=None) -> dict:
    """Execute a single expanded run; returns the driver's metrics dict.

    ``obs`` (an :class:`~repro.obs.Observability`) watches the cell's HMPI
    run; drivers with an MPI baseline leave the baseline unobserved.
    """
    driver = resolve_driver(config.driver)
    rng = np.random.default_rng(spec.seed)
    return driver.run(spec.params, rng, obs)


def run_campaign(
    config: CampaignConfig,
    out_dir=None,
    *,
    progress=None,
    telemetry=None,
) -> ResultsWriter:
    """Run every cell of ``config``; returns the filled ResultsWriter.

    ``progress`` is an optional callable ``(spec, row)`` invoked after
    each run (the CLI uses it to print one line per cell).
    ``telemetry`` is an optional :class:`~repro.obs.telemetry.EventBus`
    receiving campaign progress events (see module docstring); it never
    influences the written results.
    """
    writer = ResultsWriter(out_dir)
    specs = config.expand()
    total = len(specs)
    if telemetry is not None:
        telemetry.emit("campaign", "start", campaign=config.name,
                       driver=resolve_driver(config.driver).name,
                       total=total)
    done = 0
    errors = 0
    cell_walls: list[float] = []
    for spec in specs:
        if telemetry is not None:
            telemetry.emit("campaign", "cell.start", index=spec.index,
                           seed=spec.seed, cell=spec.cell,
                           done=done, total=total)
        t0 = time.perf_counter()
        try:
            metrics = run_one(config, spec)
            row = writer.add(spec.index, spec.seed, spec.cell, metrics)
        except ReproError as exc:
            row = writer.add(
                spec.index, spec.seed, spec.cell, {},
                status="error", error=f"{type(exc).__name__}: {exc}",
            )
        wall = time.perf_counter() - t0
        done += 1
        if row["status"] != "ok":
            errors += 1
        if telemetry is not None:
            cell_walls.append(wall)
            remaining = total - done
            eta = remaining * (sum(cell_walls) / len(cell_walls))
            telemetry.emit("campaign", "cell.finish", index=spec.index,
                           seed=spec.seed, cell=spec.cell,
                           status=row["status"], wall_seconds=wall,
                           done=done, total=total, eta_seconds=eta)
        if progress is not None:
            progress(spec, row)
    writer.finish(config.name, config.to_dict())
    if telemetry is not None:
        telemetry.emit("campaign", "finish", campaign=config.name,
                       runs=total, errors=errors,
                       wall_seconds=sum(cell_walls))
    return writer
