"""Declarative scenario-campaign harness.

Describe an experiment sweep as a JSON document — an application driver,
fixed parameters, and axes to cross — and run every cell through the
library with per-run derived seeds, structured JSONL results, and
regression checking against committed baselines::

    from repro.campaign import load_config, run_campaign

    config = load_config("examples/campaigns/mapper_ablation.json")
    writer = run_campaign(config, out_dir="out/")
    print(writer.summary(config.name, config.to_dict()))

See ``docs/CAMPAIGNS.md`` for the config schema, the driver catalogue
(including the dynamic-world ``iterative`` driver with machine churn,
time-varying load, and the re-selection policy axis), and the baseline
format.  The CLI front end is ``repro campaign run/check/list``.
"""

from .baseline import (
    DEFAULT_TOLERANCES,
    baseline_from_rows,
    check_against_baseline,
    load_baseline,
)
from .config import (
    EXECUTION_AXES,
    CampaignConfig,
    RunSpec,
    derive_seed,
    load_config,
)
from .drivers import DRIVERS, RESELECTION_POLICIES, Driver, resolve_driver
from .results import (
    RESULT_FIELDS,
    SCHEMA_VERSION,
    SUMMARY_FIELDS,
    ResultsWriter,
    canonical_json,
    read_rows,
)
from .runner import run_campaign, run_one
from .scenarios import (
    CHURN_OPS,
    ChurnEvent,
    apply_scenario,
    build_cluster,
    normalize_churn,
)

__all__ = [
    "CampaignConfig",
    "RunSpec",
    "EXECUTION_AXES",
    "derive_seed",
    "load_config",
    "run_campaign",
    "run_one",
    "ResultsWriter",
    "read_rows",
    "canonical_json",
    "SCHEMA_VERSION",
    "RESULT_FIELDS",
    "SUMMARY_FIELDS",
    "DRIVERS",
    "Driver",
    "resolve_driver",
    "RESELECTION_POLICIES",
    "DEFAULT_TOLERANCES",
    "check_against_baseline",
    "baseline_from_rows",
    "load_baseline",
    "CHURN_OPS",
    "ChurnEvent",
    "build_cluster",
    "apply_scenario",
    "normalize_churn",
]
