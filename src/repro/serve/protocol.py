"""Wire protocol of the HMPI job server: request schema and digests.

A job is a JSON object POSTed to ``/v1/jobs``.  Required keys depend on
the operation:

``timeof`` / ``group_create``
    ``model`` (PMDL source text), ``params`` (bind values, by name or
    positional list), ``cluster`` (preset name, campaign cluster spec
    dict, or a full :func:`repro.cluster.serialize.cluster_to_dict`
    document).  Optional: ``algorithm`` (when the source defines several),
    ``mapper`` (registry string), ``iterations`` (timeof only),
    ``speeds`` (per-machine estimates installed before selection).
``check``
    ``model``; optional ``net`` (run PM08x structural checks) and
    ``strict`` (warnings affect the reported exit code).
``campaign_cell``
    ``campaign`` (a full campaign config object) and ``cell`` (the
    expanded cell index to execute).

Common optional keys: ``tenant`` (quota accounting key and metric label,
1 to 64 characters from ``[A-Za-z0-9_.:@-]``, default
``"anonymous"``), ``wait`` (seconds the POST blocks for the result;
``0`` returns 202 immediately), ``timeout`` (job execution budget).

Results are pure functions of the request, so identical requests are
*coalesced*: the batch key is the (model-digest, cluster-digest,
shape-digest) triple — two tenants submitting the same model against the
same world with the same shape share one evaluation and one cache entry.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any

from ..core.mapper import available_mappers
from ..util.errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "SERVE_OPS",
    "ServeError",
    "BadRequest",
    "QuotaExceeded",
    "JobTimeout",
    "NotFound",
    "JobRequest",
    "validate_request",
    "canonical_digest",
    "cluster_digest",
]

PROTOCOL_VERSION = 1

#: Operations the server executes.  ``campaign-cell`` (the hyphenated
#: spelling) is accepted on the wire and normalised to ``campaign_cell``.
SERVE_OPS = ("timeof", "group_create", "check", "campaign_cell")

#: Ops whose result is a selection — these coalesce through the batcher.
SELECTION_OPS = ("timeof", "group_create")

_REQUEST_KEYS = frozenset({
    "op", "model", "algorithm", "params", "cluster", "mapper",
    "iterations", "speeds", "tenant", "wait", "timeout", "net", "strict",
    "campaign", "cell",
})

DEFAULT_TENANT = "anonymous"

#: A tenant becomes a metric label and a quota key: short, and nothing a
#: scrape parser or a log line could misread.
_TENANT_OK = re.compile(r"[A-Za-z0-9_.:@-]{1,64}\Z")


class ServeError(ReproError):
    """A request the server refuses, carrying its HTTP status."""

    status = 500


class BadRequest(ServeError):
    """Malformed or invalid job request (HTTP 400)."""

    status = 400


class QuotaExceeded(ServeError):
    """Tenant or server capacity exhausted (HTTP 429)."""

    status = 429


class JobTimeout(ServeError):
    """The caller's wait or the job's budget expired (HTTP 504)."""

    status = 504


class NotFound(ServeError):
    """Unknown job id or route (HTTP 404)."""

    status = 404


def _bad(msg: str) -> BadRequest:
    return BadRequest(msg)


def canonical_digest(obj: Any) -> str:
    """sha256 hex of an object's canonical (sorted, compact) JSON form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cluster_digest(spec: Any) -> str:
    """Digest identifying the world a request runs against."""
    return canonical_digest(spec)


@dataclass
class JobRequest:
    """A validated job, with its digests precomputed."""

    op: str
    tenant: str = DEFAULT_TENANT
    model: str | None = None
    algorithm: str | None = None
    params: Any = None
    cluster: Any = None
    mapper: str = "default"
    iterations: float = 1.0
    speeds: list[float] | None = None
    wait: float | None = None
    timeout: float | None = None
    net: bool = False
    strict: bool = False
    campaign: dict | None = None
    cell: int | None = None
    model_digest: str | None = None
    world_digest: str | None = None
    shape_digest: str | None = None
    batch_key: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form shipped to worker processes (picklable)."""
        return dict(vars(self))


def _check_number(raw: dict, key: str, *, minimum: float = 0.0):
    value = raw.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{key!r} must be a number, got {value!r}")
    if value < minimum:
        raise _bad(f"{key!r} must be >= {minimum}, got {value!r}")
    return float(value)


def validate_request(raw: Any) -> JobRequest:
    """Validate a decoded JSON job request; raises :class:`BadRequest`.

    Validation is eager and total: every registry string (op, mapper) is
    checked here, in the accept loop, so a typo fails with a 400 before a
    worker process ever sees the job.
    """
    from ..perfmodel import source_digest

    if not isinstance(raw, dict):
        raise _bad(f"job request must be a JSON object, "
                   f"got {type(raw).__name__}")
    unknown = set(raw) - _REQUEST_KEYS
    if unknown:
        raise _bad(f"unknown request key(s) {', '.join(sorted(unknown))}; "
                   f"expected a subset of {', '.join(sorted(_REQUEST_KEYS))}")

    op = raw.get("op")
    if isinstance(op, str):
        op = op.replace("-", "_")
    if op not in SERVE_OPS:
        raise _bad(f"unknown op {raw.get('op')!r}; "
                   f"expected one of {', '.join(SERVE_OPS)}")

    tenant = raw.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not _TENANT_OK.match(tenant):
        raise _bad("'tenant' must be 1 to 64 characters from "
                   f"[A-Za-z0-9_.:@-], got {tenant!r:.80}")

    req = JobRequest(op=op, tenant=tenant)
    req.wait = _check_number(raw, "wait")
    req.timeout = _check_number(raw, "timeout")

    if op == "campaign_cell":
        campaign = raw.get("campaign")
        if not isinstance(campaign, dict):
            raise _bad("'campaign' must be a campaign config object")
        cell = raw.get("cell", 0)
        if isinstance(cell, bool) or not isinstance(cell, int) or cell < 0:
            raise _bad(f"'cell' must be a non-negative integer, got {cell!r}")
        req.campaign = campaign
        req.cell = cell
        req.world_digest = canonical_digest(campaign)
        req.shape_digest = canonical_digest({"op": op, "cell": cell})
        req.batch_key = ("campaign_cell", req.world_digest, req.shape_digest)
        return req

    model = raw.get("model")
    if not isinstance(model, str) or not model.strip():
        raise _bad("'model' must be non-empty PMDL source text")
    req.model = model
    req.model_digest = source_digest(model)

    algorithm = raw.get("algorithm")
    if algorithm is not None and (not isinstance(algorithm, str) or not algorithm):
        raise _bad(f"'algorithm' must be a non-empty string, got {algorithm!r}")
    req.algorithm = algorithm

    if op == "check":
        req.net = bool(raw.get("net", False))
        req.strict = bool(raw.get("strict", False))
        req.shape_digest = canonical_digest({
            "op": op, "algorithm": algorithm,
            "net": req.net, "strict": req.strict,
        })
        req.batch_key = ("check", req.model_digest, req.shape_digest)
        return req

    # timeof / group_create -------------------------------------------
    cluster = raw.get("cluster")
    if cluster is None:
        raise _bad(f"op {op!r} needs a 'cluster' "
                   "(preset name, spec dict, or serialized cluster)")
    if not isinstance(cluster, (str, dict)):
        raise _bad(f"'cluster' must be a string or object, got {cluster!r}")
    req.cluster = cluster
    req.world_digest = cluster_digest(cluster)

    params = raw.get("params")
    if params is not None and not isinstance(params, (dict, list)):
        raise _bad("'params' must be an object (by name) or a list "
                   f"(positional), got {params!r}")
    req.params = params

    mapper = raw.get("mapper", "default")
    if not isinstance(mapper, str):
        raise _bad(f"'mapper' must be a registry string, got {mapper!r}")
    if mapper.lower() not in available_mappers():
        raise _bad(f"unknown mapper {mapper!r}; "
                   f"available: {', '.join(available_mappers())}")
    req.mapper = mapper.lower()

    iterations = _check_number(raw, "iterations")
    req.iterations = 1.0 if iterations is None else iterations

    speeds = raw.get("speeds")
    if speeds is not None:
        if (not isinstance(speeds, list) or not speeds
                or any(isinstance(s, bool) or not isinstance(s, (int, float))
                       or s <= 0 for s in speeds)):
            raise _bad("'speeds' must be a non-empty list of positive numbers")
        req.speeds = [float(s) for s in speeds]

    # The shape digest covers everything that changes the *selection* —
    # two requests with equal (model, world, shape) digests share one
    # evaluation regardless of tenant, wait, or timeof iterations.
    req.shape_digest = canonical_digest({
        "algorithm": req.algorithm,
        "params": req.params,
        "mapper": req.mapper,
        "speeds": req.speeds,
    })
    req.batch_key = ("select", req.model_digest, req.world_digest,
                     req.shape_digest)
    return req
