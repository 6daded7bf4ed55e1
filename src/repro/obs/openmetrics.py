"""OpenMetrics/Prometheus text exposition for metrics snapshots.

:func:`render_openmetrics` turns any :class:`MetricsRegistry` snapshot —
the live registry, an :class:`~repro.obs.core.Observability` bundle, or
a previously saved snapshot dict — into the text format scraped by
Prometheus and friends:

- counters get the ``_total`` suffix and a ``# TYPE ... counter`` header;
- gauges carry their last-set **virtual time** as an exemplar-style
  annotation (``# {vtime="2.5"} 2.5``) — the one thing a wall-clock
  scraper cannot know about a simulated run;
- histograms expand into cumulative ``_bucket{le="..."}`` series (with
  the implicit ``+Inf`` bucket) plus ``_sum`` and ``_count``;
- dotted registry names (``hmpi.selection.cache_hits``) become legal
  metric names (``hmpi_selection_cache_hits``);
- the document ends with ``# EOF`` per the OpenMetrics spec.

:func:`parse_openmetrics` is the matching format check: a small strict
parser used by tests and the CI ``monitor-smoke`` job to prove the
endpoint's output round-trips (raises :class:`ValueError` on malformed
text, returns ``{family: {"type": ..., "samples": [...]}}``).
"""

from __future__ import annotations

import math
import re
from typing import Any

__all__ = ["render_openmetrics", "parse_openmetrics"]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
# A label set ends at the first ``}`` outside a quoted value; inside the
# quotes a client-chosen value may hold anything, braces included.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"}]|"(?:[^"\\]|\\.)*")*)\})?'
    r" (?P<value>\S+)"
    r"(?P<rest>.*)$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_ESCAPED = re.compile(r"\\(.)")


def _sanitize(name: str) -> str:
    """Dotted registry names -> legal OpenMetrics metric names."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not _NAME_OK.match(out):
        out = "_" + out
    return out


def _escape(value: Any) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels_text(labels: dict[str, Any], extra: dict[str, str] | None = None) -> str:
    pairs = [(_sanitize(k), _escape(v)) for k, v in sorted(labels.items())]
    if extra:
        pairs += sorted(extra.items())
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def render_openmetrics(source: Any) -> str:
    """Render a snapshot source to OpenMetrics text.

    ``source`` may be a :class:`MetricsRegistry`, an ``Observability``
    bundle, or a snapshot dict (anything with a ``snapshot()`` method or
    a ``"metrics"`` key).
    """
    if hasattr(source, "snapshot"):
        snap = source.snapshot()
    else:
        snap = source
    if not isinstance(snap, dict) or "metrics" not in snap:
        raise TypeError(
            "render_openmetrics needs a MetricsRegistry/Observability or "
            f"a snapshot dict with a 'metrics' key, got {type(source).__name__}")

    lines: list[str] = []
    typed: set[str] = set()

    def head(family: str, om_type: str, help_text: str) -> None:
        if family not in typed:
            typed.add(family)
            lines.append(f"# TYPE {family} {om_type}")
            lines.append(f"# HELP {family} {help_text}")

    vtime = snap.get("vtime") or {}
    for edge in ("min", "max"):
        if vtime.get(edge) is not None:
            family = f"repro_vtime_{edge}"
            head(family, "gauge",
                 f"{edge} virtual time observed by the metrics registry.")
            lines.append(f"{family} {_fmt(vtime[edge])}")

    for series in snap["metrics"]:
        family = _sanitize(series["name"])
        labels = series.get("labels", {})
        kind = series["type"]
        if kind == "counter":
            head(family, "counter", f"registry counter {series['name']}.")
            lines.append(
                f"{family}_total{_labels_text(labels)} "
                f"{_fmt(series['value'])}")
        elif kind == "gauge":
            head(family, "gauge", f"registry gauge {series['name']}.")
            line = (f"{family}{_labels_text(labels)} "
                    f"{_fmt(series['value'])}")
            if series.get("vtime") is not None:
                # Exemplar-style annotation carrying the virtual time of
                # the last set — host scrapers see *when in the simulated
                # run* the value was current.
                line += (f' # {{vtime="{_fmt(series["vtime"])}"}} '
                         f"{_fmt(series['vtime'])}")
            lines.append(line)
        elif kind == "histogram":
            head(family, "histogram", f"registry histogram {series['name']}.")
            buckets = series.get("buckets")
            if buckets is None:
                raise ValueError(
                    f"histogram {series['name']!r} snapshot has no "
                    f"'buckets' field (snapshot predates schema v1?)")
            for bound, cum in buckets:
                lines.append(
                    f"{family}_bucket"
                    f"{_labels_text(labels, {'le': _fmt(bound)})} {int(cum)}")
            lines.append(
                f"{family}_bucket{_labels_text(labels, {'le': '+Inf'})} "
                f"{int(series['count'])}")
            lines.append(
                f"{family}_sum{_labels_text(labels)} {_fmt(series['sum'])}")
            lines.append(
                f"{family}_count{_labels_text(labels)} "
                f"{int(series['count'])}")
        else:
            raise ValueError(f"unknown series type {kind!r} "
                             f"for {series['name']!r}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> dict[str, dict[str, Any]]:
    """Strict-enough parser for the exposition this module renders.

    Returns ``{family: {"type": str, "samples": [(name, labels, value)]}}``.
    Raises :class:`ValueError` on structural problems: missing ``# EOF``,
    samples without a ``# TYPE`` header, unparsable lines, histogram
    bucket counts that are not monotonically non-decreasing.
    """
    families: dict[str, dict[str, Any]] = {}
    body = text.split("\n")
    if not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    stripped = [ln for ln in body if ln]
    if not stripped or stripped[-1] != "# EOF":
        raise ValueError("exposition must terminate with '# EOF'")
    for lineno, line in enumerate(body, 1):
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            _, _, family, om_type = parts
            if om_type not in ("counter", "gauge", "histogram",
                               "summary", "unknown", "info"):
                raise ValueError(
                    f"line {lineno}: unknown metric type {om_type!r}")
            families.setdefault(family, {"type": om_type, "samples": []})
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unknown comment: {line!r}")
        m = _SAMPLE_LINE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: unparsable sample: {line!r}")
        name = m.group("name")
        family = next(
            (name[: len(name) - len(sfx)]
             for sfx in ("_total", "_bucket", "_sum", "_count")
             if name.endswith(sfx)
             and name[: len(name) - len(sfx)] in families),
            name,
        )
        if family not in families:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE header")
        raw = m.group("value")
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric sample value {raw!r}") from None
        labels: dict[str, str] = {}
        if m.group("labels"):
            pairs = _LABEL_PAIR.findall(m.group("labels"))
            leftover = _LABEL_PAIR.sub("", m.group("labels")).replace(",", "")
            if not pairs or leftover.strip():
                raise ValueError(
                    f"line {lineno}: malformed label set: {line!r}")
            for k, v in pairs:
                # One left-to-right pass, so an escaped backslash followed
                # by an ``n`` does not read as a newline.
                labels[k] = _ESCAPED.sub(
                    lambda esc: "\n" if esc[1] == "n" else esc[1], v)
        rest = m.group("rest").strip()
        if rest and not rest.startswith("#"):
            raise ValueError(
                f"line {lineno}: trailing garbage after value: {rest!r}")
        families[family]["samples"].append((name, labels, value))

    for family, data in families.items():
        if data["type"] != "histogram":
            continue
        by_series: dict[tuple, list[tuple[float, float]]] = {}
        for name, labels, value in data["samples"]:
            if not name.endswith("_bucket") or "le" not in labels:
                continue
            bound = (math.inf if labels["le"] == "+Inf"
                     else float(labels["le"]))
            key = tuple(sorted((k, v) for k, v in labels.items()
                               if k != "le"))
            by_series.setdefault(key, []).append((bound, value))
        for key, buckets in by_series.items():
            cums = [cum for _, cum in sorted(buckets)]
            if cums != sorted(cums):
                raise ValueError(
                    f"histogram {family!r}{dict(key)}: cumulative bucket "
                    f"counts decrease")
    return families
