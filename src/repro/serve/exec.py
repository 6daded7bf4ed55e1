"""Pure request execution — the part of the server that computes.

:class:`Executor` turns a validated job request into its result dict.
It is transport-free and deterministic: the HTTP layer, the worker
processes, *and the differential tests* all call the same
:meth:`Executor.execute`, which is how the server guarantees a served
result is bitwise-identical to the direct in-process API — there is one
code path, not two kept in sync.

State an executor accumulates is pure cache:

- compiled models via :func:`repro.perfmodel.compile_source_cached`
  (compile-by-digest memoisation), bound once per (model digest,
  algorithm, params);
- one :class:`WorldContext` per cluster digest, whose
  :class:`~repro.core.runtime.HMPIRuntimeState` selects and caches
  exactly as ``HMPI_Timeof`` / ``HMPI_Group_create`` do inside a run;
- lowered communication nets per model digest (trace export).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any

from ..core.netmodel import NetworkModel
from ..core.runtime import HMPIRuntimeState
from ..perfmodel import stub_externals
from ..util.errors import OptionError, PMDLError, ReproError
from .protocol import PROTOCOL_VERSION, BadRequest, JobRequest

__all__ = ["Executor", "WorldContext", "stub_externals"]

class WorldContext:
    """Everything the server knows about one cluster digest.

    ``state`` is a runtime over every rank of the cluster; its selection
    cache, shared across tenants, is the served cache.  Its key holds the
    bound model's identity, and :meth:`Executor.model_for` hands back one
    bound object per (model digest, algorithm, params).
    """

    def __init__(self, digest: str, cluster: Any):
        self.digest = digest
        self.cluster = cluster
        self.state = HMPIRuntimeState(
            NetworkModel(cluster, list(range(cluster.size))))

    def apply_speeds(self, speeds: list[float] | None) -> None:
        """Install request speed estimates (a served ``HMPI_Recon``).

        Only *changed* values bump the speed epoch: resubmitting the
        same speeds leaves the epoch — and therefore every cached
        selection for this world — intact.
        """
        if speeds is None:
            return
        if len(speeds) != self.cluster.size:
            raise BadRequest(
                f"'speeds' needs one entry per machine "
                f"({self.cluster.size}), got {len(speeds)}")
        netmodel = self.state.netmodel
        for i, s in enumerate(speeds):
            if netmodel.speed_of_machine(i) != s:
                netmodel.update_speed(i, s)


class Executor:
    """Execute validated job requests against digest-keyed caches."""

    WORLD_CAPACITY = 32

    def __init__(self) -> None:
        self.worlds: OrderedDict[str, WorldContext] = OrderedDict()
        self._models: dict[tuple, Any] = {}
        self._nets: dict[str, Any] = {}

    # -- building blocks ----------------------------------------------
    def world(self, req: JobRequest) -> WorldContext:
        digest = req.world_digest
        assert digest is not None
        ctx = self.worlds.get(digest)
        if ctx is None:
            ctx = WorldContext(digest, self._build_cluster(req.cluster))
            self.worlds[digest] = ctx
            while len(self.worlds) > self.WORLD_CAPACITY:
                self.worlds.popitem(last=False)
        else:
            self.worlds.move_to_end(digest)
        return ctx

    @staticmethod
    def _build_cluster(spec: Any) -> Any:
        from ..campaign.scenarios import build_cluster
        from ..cluster.serialize import cluster_from_dict
        from ..util.errors import CampaignError

        try:
            if isinstance(spec, dict) and "machines" in spec:
                return cluster_from_dict(spec)
            return build_cluster(spec)
        except (CampaignError, ReproError, ValueError, TypeError, KeyError) as exc:
            raise BadRequest(f"bad cluster spec: {exc}") from exc

    def model_for(self, req: JobRequest) -> Any:
        """Compile (memoised) and bind the request's model."""
        from ..perfmodel import compile_source_cached
        from ..perfmodel.compiler import select_algorithm

        assert req.model is not None
        try:
            pmodel = select_algorithm(
                compile_source_cached(req.model, stub_externals(req.model)),
                req.algorithm)
        except PMDLError as exc:
            raise BadRequest(f"model does not compile: {exc}") from exc

        bind_key = (req.model_digest, req.algorithm,
                    None if req.params is None
                    else json.dumps(req.params, sort_keys=True))
        bound = self._models.get(bind_key)
        if bound is None:
            try:
                if req.params is None:
                    bound = pmodel.bind()
                elif isinstance(req.params, dict):
                    bound = pmodel.bind(**req.params)
                else:
                    bound = pmodel.bind(*req.params)
            except (PMDLError, TypeError) as exc:
                raise BadRequest(f"cannot bind model: {exc}") from exc
            self._models[bind_key] = bound
            while len(self._models) > 256:
                self._models.pop(next(iter(self._models)))
        return bound

    # -- operations ----------------------------------------------------
    def execute(self, req: JobRequest) -> dict[str, Any]:
        """Run one job; returns its JSON-safe result dict."""
        if req.op == "timeof" or req.op == "group_create":
            return self._execute_selection(req)
        if req.op == "check":
            return self._execute_check(req)
        if req.op == "campaign_cell":
            return self._execute_campaign_cell(req)
        raise BadRequest(f"unknown op {req.op!r}")  # pragma: no cover

    def _execute_selection(self, req: JobRequest) -> dict[str, Any]:
        model = self.model_for(req)
        ctx = self.world(req)
        info: dict[str, Any] = {}
        try:
            ctx.apply_speeds(req.speeds)
            mapping = ctx.state.select(model, req.mapper, info=info)
        except (OptionError, ReproError) as exc:
            raise BadRequest(f"selection failed: {exc}") from exc
        result: dict[str, Any] = {
            "op": req.op,
            "protocol": PROTOCOL_VERSION,
            "model_digest": req.model_digest,
            "cluster_digest": req.world_digest,
            "cache": info["cache"],
            "speed_epoch": ctx.state.netmodel.speed_epoch,
            "mapping": {
                "processes": list(mapping.processes),
                "machines": list(mapping.machines),
                "time": mapping.time,
            },
        }
        if req.op == "timeof":
            # Exactly HMPI.timeof: best mapping's time scaled by iterations.
            result["predicted_time"] = mapping.time * req.iterations
            result["iterations"] = req.iterations
        else:
            result["group_size"] = len(mapping.processes)
        return result

    def _execute_check(self, req: JobRequest) -> dict[str, Any]:
        from ..perfmodel import check_source

        assert req.model is not None
        report = check_source(
            req.model,
            target=req.algorithm or "<request>",
            net=req.net,
            externals=stub_externals(req.model),
        )
        return {
            "op": "check",
            "protocol": PROTOCOL_VERSION,
            "model_digest": req.model_digest,
            "report": report.to_dict(),
            "exit_code": report.exit_code(strict=req.strict),
        }

    def _execute_campaign_cell(self, req: JobRequest) -> dict[str, Any]:
        import numpy as np

        from ..campaign.config import CampaignConfig
        from ..campaign.runner import run_one
        from ..util.errors import CampaignError

        assert req.campaign is not None and req.cell is not None
        try:
            config = CampaignConfig(req.campaign)
        except CampaignError as exc:
            raise BadRequest(f"bad campaign config: {exc}") from exc
        specs = config.expand()
        if req.cell >= len(specs):
            raise BadRequest(
                f"cell {req.cell} out of range; campaign expands to "
                f"{len(specs)} cell(s)")
        spec = specs[req.cell]
        metrics = run_one(config, spec)
        clean = {k: (v.item() if isinstance(v, np.generic) else v)
                 for k, v in metrics.items()}
        return {
            "op": "campaign_cell",
            "protocol": PROTOCOL_VERSION,
            "campaign": config.name,
            "cell": spec.cell,
            "index": spec.index,
            "seed": spec.seed,
            "metrics": clean,
        }

    # -- trace export --------------------------------------------------
    def trace(self, req: JobRequest) -> dict[str, Any]:
        """Chrome-trace document of a selection job's predicted schedule."""
        from ..obs.netexport import net_chrome_trace
        from ..perfmodel.net import lower_model

        if req.op not in ("timeof", "group_create"):
            raise BadRequest(
                f"op {req.op!r} has no schedule to trace; "
                "traces exist for timeof and group_create jobs")
        model = self.model_for(req)
        ctx = self.world(req)
        ctx.apply_speeds(req.speeds)
        mapping = ctx.state.select(model, req.mapper)
        assert req.model_digest is not None
        net = self._nets.get(req.model_digest)
        if net is None:
            try:
                net = lower_model(model)
            except (PMDLError, ReproError) as exc:
                raise BadRequest(f"model cannot lower to a net: {exc}") from exc
            self._nets[req.model_digest] = net
            while len(self._nets) > 64:
                self._nets.pop(next(iter(self._nets)))
        return net_chrome_trace(
            model, ctx.state.netmodel, list(mapping.machines), net=net,
            metadata={
                "model_digest": req.model_digest,
                "cluster_digest": req.world_digest,
                "predicted_time": mapping.time,
            },
        )
