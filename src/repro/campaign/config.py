"""Declarative campaign configs: validation, expansion, seed derivation.

A campaign is a JSON document (or plain dict)::

    {
      "name": "mapper_ablation",
      "app": "timeof_em3d",
      "seed": 20030422,
      "fixed": {"cluster": "paper", "p": 7},
      "axes": {"mapper": ["greedy", "refine", "default", "exhaustive"]}
    }

``app`` names a driver from :data:`repro.campaign.drivers.DRIVERS`;
``fixed`` holds parameters shared by every run; ``axes`` maps parameter
names to value lists, expanded as a cartesian product into one
:class:`RunSpec` per cell.  Every parameter name is validated against
the driver's declared surface, so a typo fails at load (exit code 2
from the CLI), not mid-sweep.

**Seed derivation.**  Each run gets its own seed via
:func:`repro.util.rng.spawn_rng` from a *fresh* parent stream seeded
with the campaign seed, keyed by a digest of the run's *scenario*
parameters (canonical JSON, sorted keys).  Two consequences, both
asserted by the property tests:

- Permuting the order of axes (or moving a parameter between ``fixed``
  and an axis) never changes any run's seed — the key depends only on
  the merged parameter values, and the parent stream is re-created per
  run so no draw-order dependence leaks in.
- Execution-only parameters (:data:`EXECUTION_AXES`: the simulation
  ``engine``) are excluded from the key, so an ``engine`` axis sweeps
  *the same* seeded scenarios under both engines and their rows can be
  compared bitwise.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
from dataclasses import dataclass

from ..util.errors import CampaignError
from ..util.rng import DEFAULT_SEED, make_rng, spawn_rng
from .drivers import Driver, resolve_driver
from .results import canonical_json

__all__ = [
    "CampaignConfig",
    "RunSpec",
    "EXECUTION_AXES",
    "derive_seed",
    "load_config",
]

#: Parameters that choose *how* a scenario is simulated, not *what*
#: happens in it; excluded from seed derivation (see module docstring).
EXECUTION_AXES = frozenset({"engine"})

_TOP_LEVEL_KEYS = frozenset({"name", "app", "seed", "fixed", "axes"})


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved campaign cell, ready to execute.

    ``cell`` holds only the axis coordinates (what varies — recorded in
    the result row and matched against baselines); ``params`` is the
    complete driver parameter dict (fixed + cell); ``seed`` is the
    derived per-run seed.
    """

    index: int
    cell: dict
    params: dict
    seed: int


def derive_seed(campaign_seed: int, scenario: dict) -> int:
    """The per-run seed for a merged scenario-parameter dict."""
    digest = hashlib.sha256(canonical_json(scenario).encode()).digest()
    key = int.from_bytes(digest[:8], "big") % 2**63
    return int(spawn_rng(make_rng(campaign_seed), key).integers(0, 2**63 - 1))


class CampaignConfig:
    """A validated campaign specification."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise CampaignError(
                f"campaign config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - _TOP_LEVEL_KEYS
        if unknown:
            raise CampaignError(
                f"unknown campaign key(s) {', '.join(sorted(unknown))}; "
                f"expected {', '.join(sorted(_TOP_LEVEL_KEYS))}"
            )
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise CampaignError("campaign needs a non-empty string 'name'")
        self.name = name
        self.driver: Driver = resolve_driver(raw.get("app"))
        seed = raw.get("seed", DEFAULT_SEED)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise CampaignError(f"campaign seed must be an integer, got {seed!r}")
        self.seed = seed

        fixed = raw.get("fixed", {})
        axes = raw.get("axes", {})
        if not isinstance(fixed, dict):
            raise CampaignError(f"'fixed' must be an object, got {fixed!r}")
        if not isinstance(axes, dict) or not axes:
            raise CampaignError("'axes' must be a non-empty object")
        for axis, values in axes.items():
            if not isinstance(values, list) or not values:
                raise CampaignError(
                    f"axis {axis!r} must map to a non-empty list, got {values!r}")
        overlap = set(fixed) & set(axes)
        if overlap:
            raise CampaignError(
                f"parameter(s) {', '.join(sorted(overlap))} appear in both "
                f"'fixed' and 'axes'"
            )
        for param in list(fixed) + list(axes):
            if param not in self.driver.params:
                raise CampaignError(
                    f"driver {self.driver.name!r} has no parameter {param!r}; "
                    f"expected one of {', '.join(self.driver.params)}"
                )
        self.fixed = dict(fixed)
        self.axes = dict(axes)
        self.raw = raw

    # ------------------------------------------------------------------
    @property
    def n_runs(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def expand(self) -> list[RunSpec]:
        """The cartesian expansion: one :class:`RunSpec` per cell.

        Cells enumerate with axes sorted by name and values in declared
        order, so the run order — like the seeds — is independent of the
        key order the config file happens to use.
        """
        names = sorted(self.axes)
        specs = []
        for index, combo in enumerate(
                itertools.product(*(self.axes[a] for a in names))):
            cell = dict(zip(names, combo))
            params = {**self.fixed, **cell}
            scenario = {k: v for k, v in params.items()
                        if k not in EXECUTION_AXES}
            specs.append(RunSpec(
                index=index, cell=cell, params=params,
                seed=derive_seed(self.seed, scenario),
            ))
        return specs

    def to_dict(self) -> dict:
        """Canonical dict form (used for the summary's config digest)."""
        return {
            "name": self.name,
            "app": self.driver.name,
            "seed": self.seed,
            "fixed": self.fixed,
            "axes": self.axes,
        }


def load_config(path: "str | pathlib.Path") -> CampaignConfig:
    """Read and validate a campaign JSON file."""
    p = pathlib.Path(path)
    if not p.exists():
        raise CampaignError(f"no campaign file at {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CampaignError(f"{p}: not valid JSON: {exc}") from exc
    return CampaignConfig(raw)
