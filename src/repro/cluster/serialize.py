"""The world format: one parser for every way a cluster is written as JSON.

The CLI, campaign configs and the serve protocol all read a cluster with
:func:`cluster_from_spec`: a preset name, a ``kind`` dict (``uniform``,
``homogeneous``, ``random``, or ``topology`` with a topology preset's
shape keys) or a snapshot, a dict with ``machines`` as
:func:`cluster_to_dict` writes it.  Snapshot and campaign load models
and transient faults go through the same field tables.  A malformed
spec raises :class:`~repro.util.errors.ClusterError` starting with the
offending key's path (``machines[2].load.period: required``).
"""

from __future__ import annotations

import math
from typing import Any, Callable

from ..util.errors import ClusterError
from .faults import TransientFaultConfig, TransientLinkFaults, attach_transient_faults
from .link import Link, Protocol
from .load import (DIURNAL_PROFILE, NO_LOAD, ConstantLoad, DiurnalLoad, LoadModel,
                   RandomWalkLoad, SquareWaveLoad, StepLoad)
from .machine import Machine
from .network import Cluster
from .presets import (CLUSTER_PRESETS, TOPOLOGY_PRESETS, homogeneous_network,
                      random_network, uniform_network)
from .topology import Topology, TopologyNode

__all__ = ["cluster_from_spec", "cluster_to_dict", "load_from_spec",
           "transient_faults_from_spec"]

# A field table maps each allowed key to ``(convert, default)``: convert
# None keeps the value as is; default None leaves an absent (or null) key
# to the callee, _REQUIRED makes it an error, _DRAWN draws a seed from
# the rng.
_REQUIRED, _DRAWN = object(), object()


class _PathError(ClusterError):
    """A spec error whose message starts with the offending key's path."""


def _under(key: str, exc: Exception) -> ClusterError:
    if isinstance(exc, _PathError):
        return _PathError(f"{key}{'' if str(exc)[0] == '[' else '.'}{exc}")
    return _PathError(f"{key}: {exc}") if key else ClusterError(str(exc))


def _build(key: str, factory: Callable, *args, **kwargs) -> Any:
    """``factory(...)``, its complaint filed under ``key`` ("": the spec)."""
    try:
        return factory(*args, **kwargs)
    except (ClusterError, ValueError, TypeError) as exc:
        if not key and isinstance(exc, ClusterError):
            raise
        raise _under(key, exc) from exc


def _fields(spec: Any, fields: dict, rng=None) -> dict[str, Any]:
    """Keyword arguments read from ``spec`` by a field table."""
    if not isinstance(spec, dict):
        raise ClusterError(f"expected an object, got {spec!r}")
    for key in spec:
        if key not in fields:
            raise _PathError(f"{key}: unknown key; expected one of "
                             f"{', '.join(fields)}")
    kwargs = {}
    for key, (convert, default) in fields.items():
        if spec.get(key) is not None:
            kwargs[key] = _build(key, convert or (lambda v: v), spec[key])
        elif default is _REQUIRED or (default is _DRAWN and rng is None):
            raise _PathError(f"{key}: required")
        elif default is _DRAWN:
            kwargs[key] = int(rng.integers(0, 2**63 - 1))
        elif default is not None:
            kwargs[key] = default
    return kwargs


def _each(convert: Callable) -> Callable:
    """Converter of a list to the tuple of its items read by ``convert``."""
    def each(values: Any) -> tuple:
        if not isinstance(values, list):
            raise ClusterError(f"expected a list, got {values!r}")
        return tuple(_build(f"[{i}]", convert, v) for i, v in enumerate(values))
    return each


def _kind(spec: Any, kinds) -> tuple[str, dict]:
    """Split a ``kind`` dict into its kind and the remaining keys."""
    if not isinstance(spec, dict):
        raise ClusterError(f"expected an object, got {spec!r}")
    body = dict(spec)
    kind = body.pop("kind", None)
    if not isinstance(kind, str) or kind not in kinds:
        raise _PathError(f"kind: unknown kind {kind!r}; expected one of "
                         f"{', '.join(kinds)}")
    return kind, body


# -- load models --------------------------------------------------------

_PAIRS = _each(_each(float))

#: Load-model kinds: the class and its constructor fields, in the order
#: :func:`cluster_to_dict` writes them.
_LOADS: dict[str, tuple[type, dict]] = {
    "constant": (ConstantLoad, {"share": (float, 1.0)}),
    "step": (StepLoad, {"steps": (_PAIRS, _REQUIRED), "initial": (float, 1.0)}),
    "square": (SquareWaveLoad, {"period": (float, _REQUIRED), "high": (float, 1.0),
                                "low": (float, 0.5), "phase": (float, 0.0)}),
    "diurnal": (DiurnalLoad, {"day": (float, 24.0),
                              "profile": (_PAIRS, DIURNAL_PROFILE),
                              "phase": (float, 0.0)}),
    "random_walk": (RandomWalkLoad, {"interval": (float, _REQUIRED),
                                     "seed": (int, _DRAWN), "start": (float, 1.0),
                                     "step": (float, 0.2), "floor": (float, 0.05)}),
}


def load_from_spec(spec: Any, rng=None) -> LoadModel:
    """A load model from its ``{"kind": ..., ...}`` dict.

    A ``random_walk`` without a ``seed`` draws one from ``rng`` (a
    campaign run's stream); with no ``rng`` the seed is required.
    """
    kind, body = _kind(spec, _LOADS)
    cls, fields = _LOADS[kind]
    return _build("", cls, **_fields(body, fields, rng))


def _load_to_dict(load: LoadModel) -> dict[str, Any]:
    for kind, (cls, fields) in _LOADS.items():
        if type(load) is cls:
            blob: dict[str, Any] = {"kind": kind}
            for key, (convert, _) in fields.items():
                value = getattr(load, key)
                blob[key] = [list(p) for p in value] if convert is _PAIRS else value
            return blob
    raise ClusterError(f"cannot serialize load model {type(load).__name__}")


# -- links and topology trees -------------------------------------------

_PROTOCOL = dict.fromkeys(("name", "latency", "bandwidth"), (None, _REQUIRED))


def _protocol(blob: Any) -> Protocol:
    return Protocol(**_fields(blob, _PROTOCOL))


def _protocol_to_dict(p: Protocol) -> dict[str, Any]:
    return {"name": p.name, "latency": p.latency, "bandwidth": p.bandwidth}


_LINK = {"protocols": (_each(_protocol), _REQUIRED), "pinned": (None, None)}


def _link_to_dict(link: Link) -> dict[str, Any]:
    return {"protocols": [_protocol_to_dict(p) for p in link.protocols],
            "pinned": link.pinned}


def _link_entry(blob: Any) -> tuple[tuple, Link]:
    f = _fields(blob, {"src": (int, _REQUIRED), "dst": (int, _REQUIRED), **_LINK})
    return (f.pop("src"), f.pop("dst")), Link(**f)


def _node(blob: Any) -> TopologyNode:
    if isinstance(blob, dict) and "machine" in blob:
        return TopologyNode.leaf(**_fields(blob, {"machine": (None, _REQUIRED)}))
    return TopologyNode(**_fields(blob, _NODE))


_NODE = {"name": (None, "level"), "kind": (None, "level"),
         "protocols": (_each(_protocol), None), "children": (_each(_node), None)}


def _node_to_dict(node: TopologyNode) -> dict[str, Any]:
    if node.is_leaf:
        return {"machine": node.machine}
    return {"name": node.name, "kind": node.kind,
            "protocols": [_protocol_to_dict(p) for p in node.protocols],
            "children": [_node_to_dict(c) for c in node.children]}


# -- transient link faults ----------------------------------------------

_TRANSIENT = {"drop_prob": (float, 0.0), "delay_prob": (float, 0.0),
              "delay": (float, 0.0), "start": (float, 0.0),
              "stop": (float, math.inf)}


def _tf_config(blob: Any, extra: dict | None = None, rng=None) -> tuple:
    """The one transient-fault config parser: a config from ``blob``'s
    fault fields, and the values of its ``extra`` fields."""
    kwargs = _fields(blob, {**(extra or {}), **_TRANSIENT}, rng)
    rest = {key: kwargs.pop(key) for key in extra or ()}
    return TransientFaultConfig(**kwargs), rest


def _tf_config_to_dict(cfg: TransientFaultConfig) -> dict[str, Any]:
    # math.inf (an open-ended stop) is not valid JSON: it is the default
    return {key: getattr(cfg, key) for key in _TRANSIENT
            if math.isfinite(getattr(cfg, key))}


def transient_faults_from_spec(spec: Any, rng=None) -> TransientLinkFaults:
    """Transient link faults from a campaign ``transient`` dict: the
    :class:`TransientFaultConfig` fields plus an optional ``seed``,
    drawn from ``rng`` when absent."""
    config, rest = _tf_config(spec, {"seed": (int, _DRAWN)}, rng)
    return TransientLinkFaults(config, seed=rest["seed"])


def _tf_pair(blob: Any) -> tuple[tuple, TransientFaultConfig]:
    config, ends = _tf_config(blob, {"src": (None, _REQUIRED),
                                     "dst": (None, _REQUIRED)})
    return (ends["src"], ends["dst"]), config


def _transient_faults(blob: Any) -> TransientLinkFaults:
    f = _fields(blob, {"seed": (int, 0),
                       "default": (lambda b: _tf_config(b)[0], None),
                       "pairs": (_each(_tf_pair), None)})
    return TransientLinkFaults(f.get("default"), seed=f["seed"],
                               pair_configs=dict(f.get("pairs", ())))


# -- clusters -----------------------------------------------------------

#: Constructor-dict cluster kinds: factory and fields.  The ``topology``
#: kind takes the fields of the preset it names.
_KINDS = {
    "uniform": (uniform_network, {"speeds": (_each(float), _REQUIRED)}),
    "homogeneous": (homogeneous_network, {"n": (int, 4), "speed": (float, 100.0)}),
    "random": (random_network, {"n": (int, 6), "seed": (int, 0)}),
}
_TOPOLOGY_FIELDS = {
    "two_site": {"machines_per_site": (int, None), "speed": (float, None)},
    "clusters_of_clusters": {"sites": (int, None), "subnets_per_site": (int, None),
                             "machines_per_subnet": (int, None),
                             "speeds": (_each(float), None)},
}

_MACHINE = {"name": (None, _REQUIRED), "speed": (None, _REQUIRED),
            "os": (None, None), "load": (load_from_spec, None),
            "fail_at": (None, None)}
_SNAPSHOT = {
    "single_port": (bool, None),
    "machines": (_each(lambda b: Machine(**_fields(b, _MACHINE))), _REQUIRED),
    "default_protocols": (_each(_protocol), None),
    "loopback": (lambda b: Link(**_fields(b, _LINK)), None),
    "links": (lambda v: dict(_each(_link_entry)(v)), None),
    "transient_faults": (_transient_faults, None),
    "topology": (lambda b: Topology(_node(b)), None),
}


def cluster_from_spec(spec: Any) -> Cluster:
    """Build a cluster from a world spec: a preset name, a ``kind`` dict
    or a snapshot (see the module docstring)."""
    if isinstance(spec, str):
        if spec not in CLUSTER_PRESETS:
            raise ClusterError(f"unknown cluster preset {spec!r}; expected "
                               f"one of {', '.join(CLUSTER_PRESETS)}")
        return CLUSTER_PRESETS[spec]()
    if isinstance(spec, dict) and "machines" in spec:
        f = _fields(spec, _SNAPSHOT)
        faults, topology = f.pop("transient_faults", None), f.pop("topology", None)
        if not f.get("default_protocols"):  # an empty list means the default
            f.pop("default_protocols", None)
        cluster = _build("", Cluster, **f)
        _build("transient_faults", attach_transient_faults, cluster, faults)
        # Snapshots without a topology stay a flat pairwise mesh.
        _build("topology", cluster.set_topology, topology)
        return cluster
    if not isinstance(spec, dict):
        raise ClusterError(f"cluster spec must be a preset name or an "
                           f"object, got {spec!r}")
    if "kind" not in spec:
        raise _PathError("machines: required (or a 'kind' for a "
                         "constructor dict)")
    kind, body = _kind(spec, (*_KINDS, "topology"))
    if kind != "topology":
        factory, fields = _KINDS[kind]
        return _build("", factory, **_fields(body, fields))
    preset = body.pop("preset", None)
    if not isinstance(preset, str) or preset not in TOPOLOGY_PRESETS:
        raise _PathError(f"preset: unknown topology preset {preset!r}; "
                         f"expected one of {', '.join(TOPOLOGY_PRESETS)}")
    return _build("", TOPOLOGY_PRESETS[preset],
                  **_fields(body, _TOPOLOGY_FIELDS[preset]))


def cluster_to_dict(cluster: Cluster) -> dict[str, Any]:
    """Serialize a cluster to a snapshot :func:`cluster_from_spec` reads."""
    machines = []
    for m in cluster.machines:
        entry: dict[str, Any] = {"name": m.name, "speed": m.speed, "os": m.os}
        if m.load is not NO_LOAD:
            entry["load"] = _load_to_dict(m.load)
        if m.fail_at is not None:
            entry["fail_at"] = m.fail_at
        machines.append(entry)
    blob = {
        "single_port": cluster.single_port,
        "machines": machines,
        "default_protocols": [_protocol_to_dict(p) for p in cluster._default_protocols],
        "loopback": _link_to_dict(cluster.loopback),
        "links": [{"src": i, "dst": j, **_link_to_dict(link)}
                  for i, j, link in cluster.all_links()],
    }
    tf = cluster.transient_faults
    if tf is not None:
        blob["transient_faults"] = {"seed": tf.seed,
                                    "default": _tf_config_to_dict(tf.default)}
        if tf.pair_configs:
            blob["transient_faults"]["pairs"] = [
                {"src": src, "dst": dst, **_tf_config_to_dict(cfg)}
                for (src, dst), cfg in sorted(tf.pair_configs.items())]
    if cluster.topology is not None:
        blob["topology"] = _node_to_dict(cluster.topology.root)
    return blob
