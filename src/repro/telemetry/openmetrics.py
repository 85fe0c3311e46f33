"""OpenMetrics text exposition and a minimal validating parser.

Renders :class:`~repro.telemetry.metrics.MetricsRegistry` instruments
(the serving daemon's ``/metrics`` among them) in the OpenMetrics 1.0
text format — ``# TYPE``/``# HELP`` metadata, escaped label values,
histograms as cumulative ``_bucket{le=...}`` series plus ``_sum`` /
``_count``, and the mandatory ``# EOF`` terminator — so any Prometheus
scraper can consume ``GET /metrics`` via content negotiation.

:func:`parse_openmetrics` is the counterpart used by tests and CI: it
checks structural validity (terminator present, samples declared by a
preceding ``# TYPE``, bucket counts monotone and consistent with
``_count``) and returns the parsed samples for value comparison with
the JSON rendering.  It is a validator for our own exposition, not a
general scraper.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from ..errors import ArtifactError

__all__ = [
    "CONTENT_TYPE", "OpenMetricsBuilder",
    "sanitize_metric_name", "escape_label_value",
    "render_registry", "parse_openmetrics",
]

#: the content type negotiated on ``GET /metrics``
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def sanitize_metric_name(name: str) -> str:
    """Map a dotted registry name onto the OpenMetrics charset."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _NAME_RE.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape backslash, double-quote and newline per the spec."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def _format_labels(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    parts = [
        f'{key}="{escape_label_value(labels[key])}"'
        for key in sorted(labels)
    ]
    return "{" + ",".join(parts) + "}"


class OpenMetricsBuilder:
    """Accumulates metric families and renders the exposition text.

    Samples for one family may be added across several calls (e.g. one
    counter per model label); they are grouped under a single ``# TYPE``
    block in first-seen family order.
    """

    def __init__(self) -> None:
        # family name -> (type, help, [sample lines])
        self._families: Dict[str, Tuple[str, Optional[str], List[str]]] = {}
        self._order: List[str] = []

    def _family(self, name: str, mtype: str,
                help_text: Optional[str]) -> List[str]:
        name = sanitize_metric_name(name)
        entry = self._families.get(name)
        if entry is None:
            entry = self._families[name] = (mtype, help_text, [])
            self._order.append(name)
        elif entry[0] != mtype:
            raise ArtifactError(
                f"metric family {name!r} registered as {entry[0]}, "
                f"cannot re-register as {mtype}"
            )
        return entry[2]

    def counter(self, name: str, value: float,
                labels: Optional[Dict[str, str]] = None,
                help_text: Optional[str] = None) -> None:
        name = sanitize_metric_name(name)
        if name.endswith("_total"):
            name = name[: -len("_total")]
        samples = self._family(name, "counter", help_text)
        samples.append(
            f"{name}_total{_format_labels(labels)} {_format_value(value)}"
        )

    def gauge(self, name: str, value: float,
              labels: Optional[Dict[str, str]] = None,
              help_text: Optional[str] = None) -> None:
        name = sanitize_metric_name(name)
        samples = self._family(name, "gauge", help_text)
        samples.append(
            f"{name}{_format_labels(labels)} {_format_value(value)}"
        )

    def histogram(self, name: str,
                  buckets: List[Tuple[float, int]],
                  total: float, count: int,
                  labels: Optional[Dict[str, str]] = None,
                  help_text: Optional[str] = None) -> None:
        """``buckets`` are cumulative ``(le_bound, count)`` pairs; a
        final ``+Inf`` bucket is appended if missing."""
        name = sanitize_metric_name(name)
        samples = self._family(name, "histogram", help_text)
        if not buckets or buckets[-1][0] != math.inf:
            buckets = list(buckets) + [(math.inf, count)]
        for bound, cumulative in buckets:
            lab = dict(labels or {})
            lab["le"] = _format_value(float(bound))
            samples.append(
                f"{name}_bucket{_format_labels(lab)} {cumulative}"
            )
        samples.append(
            f"{name}_sum{_format_labels(labels)} {_format_value(total)}"
        )
        samples.append(f"{name}_count{_format_labels(labels)} {count}")

    def render(self) -> str:
        lines: List[str] = []
        for name in self._order:
            mtype, help_text, samples = self._families[name]
            lines.append(f"# TYPE {name} {mtype}")
            if help_text:
                lines.append(f"# HELP {name} {escape_label_value(help_text)}")
            lines.extend(samples)
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def render_registry(registry, prefix: str = "repro_",
                    labels: Optional[Dict[str, str]] = None,
                    builder: Optional[OpenMetricsBuilder] = None) -> str:
    """Render a :class:`MetricsRegistry` as OpenMetrics text.

    Counters become ``<prefix><name>_total``; gauges additionally emit
    a ``_trend`` gauge family (min/mean/max over the retained ring)
    when samples exist; histograms expose their exact fixed buckets.
    ``labels`` go on every sample.  Pass a shared ``builder`` to render
    several registries (say one per model) into one exposition: the
    builder groups each family under one ``# TYPE`` block, and the
    return value is its text so far.
    """
    builder = builder if builder is not None else OpenMetricsBuilder()
    for counter in registry.counters():
        builder.counter(prefix + counter.name, counter.value, labels=labels)
    for gauge in registry.gauges():
        if gauge.value is not None:
            builder.gauge(prefix + gauge.name, gauge.value, labels=labels)
        trend = gauge.trend()
        if trend["count"]:
            for stat in ("min", "mean", "max"):
                builder.gauge(
                    prefix + gauge.name + "_trend", trend[stat],
                    labels={**(labels or {}), "stat": stat},
                )
    for histogram in registry.histograms():
        builder.histogram(
            prefix + histogram.name,
            histogram.cumulative_buckets(),
            total=histogram.total,
            count=histogram.count,
            labels=labels,
        )
    return builder.render()


# ----------------------------------------------------------------------
# minimal validating parser


def _parse_labels(text: str, line_no: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.find("=", i)
        if eq < 0:
            raise ArtifactError(
                f"line {line_no}: label without '=' in {text[i:]!r}"
            )
        key = text[i:eq]
        if not _LABEL_NAME_RE.match(key):
            raise ArtifactError(
                f"line {line_no}: invalid label name {key!r}"
            )
        if eq + 1 >= len(text) or text[eq + 1] != '"':
            raise ArtifactError(
                f"line {line_no}: unquoted label value for {key!r}"
            )
        value_chars: List[str] = []
        j = eq + 2
        while j < len(text):
            ch = text[j]
            if ch == "\\":
                if j + 1 >= len(text):
                    raise ArtifactError(
                        f"line {line_no}: dangling escape in label value"
                    )
                nxt = text[j + 1]
                value_chars.append(
                    {"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt)
                )
                j += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            j += 1
        else:
            raise ArtifactError(
                f"line {line_no}: unterminated label value for {key!r}"
            )
        labels[key] = "".join(value_chars)
        i = j + 1
        if i < len(text):
            if text[i] != ",":
                raise ArtifactError(
                    f"line {line_no}: expected ',' between labels"
                )
            i += 1
    return labels


def _parse_value(text: str, line_no: int) -> float:
    token = text.strip()
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    try:
        return float(token)
    except ValueError:
        raise ArtifactError(f"line {line_no}: bad sample value {token!r}")


def _family_of(sample_name: str, families: Dict[str, str]) -> Optional[str]:
    if sample_name in families:
        return sample_name
    for suffix in ("_total", "_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families:
                return base
    return None


def parse_openmetrics(text: str) -> dict:
    """Validate and parse an OpenMetrics exposition.

    Returns ``{"families": {name: type}, "samples": [(name, labels,
    value), ...]}``.  Raises :class:`~repro.errors.ArtifactError` on
    structural violations: missing ``# EOF``, samples without a
    preceding ``# TYPE``, invalid names, non-monotonic histogram
    buckets, or a ``+Inf`` bucket disagreeing with ``_count``.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise ArtifactError("exposition does not end with '# EOF'")
    families: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    # histogram series key -> [(le, cumulative), ...]
    buckets: Dict[str, List[Tuple[float, float]]] = {}
    counts: Dict[str, float] = {}
    for line_no, line in enumerate(lines[:-1], start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                name, mtype = parts[2], (parts[3] if len(parts) > 3 else "")
                if not _NAME_RE.match(name):
                    raise ArtifactError(
                        f"line {line_no}: invalid family name {name!r}"
                    )
                if name in families:
                    raise ArtifactError(
                        f"line {line_no}: duplicate TYPE for {name!r}"
                    )
                if mtype not in ("counter", "gauge", "histogram",
                                 "summary", "unknown"):
                    raise ArtifactError(
                        f"line {line_no}: unknown metric type {mtype!r}"
                    )
                families[name] = mtype
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ArtifactError(f"line {line_no}: unbalanced braces")
            name = line[:brace]
            labels = _parse_labels(line[brace + 1:close], line_no)
            value = _parse_value(line[close + 1:], line_no)
        else:
            name, _, rest = line.partition(" ")
            labels = {}
            value = _parse_value(rest, line_no)
        if not _NAME_RE.match(name):
            raise ArtifactError(
                f"line {line_no}: invalid sample name {name!r}"
            )
        family = _family_of(name, families)
        if family is None:
            raise ArtifactError(
                f"line {line_no}: sample {name!r} has no preceding # TYPE"
            )
        mtype = families[family]
        if mtype == "counter" and not name.endswith("_total"):
            raise ArtifactError(
                f"line {line_no}: counter sample {name!r} "
                "must end with _total"
            )
        if mtype == "histogram" and name.endswith("_bucket"):
            if "le" not in labels:
                raise ArtifactError(
                    f"line {line_no}: histogram bucket without 'le' label"
                )
            series = tuple(sorted(
                item for item in labels.items() if item[0] != "le"
            ))
            key = f"{family}{series!r}"
            le = _parse_value(labels["le"], line_no)
            buckets.setdefault(key, []).append((le, value))
        if mtype == "histogram" and name.endswith("_count"):
            series = tuple(sorted(labels.items()))
            counts[f"{family}{series!r}"] = value
        samples.append((name, labels, value))
    for key, series in buckets.items():
        bounds = [le for le, _ in series]
        cumulative = [n for _, n in series]
        if bounds != sorted(bounds):
            raise ArtifactError(f"histogram {key}: 'le' bounds not sorted")
        if cumulative != sorted(cumulative):
            raise ArtifactError(
                f"histogram {key}: bucket counts not monotone"
            )
        if bounds[-1] != math.inf:
            raise ArtifactError(f"histogram {key}: missing +Inf bucket")
        declared = counts.get(key)
        if declared is not None and declared != cumulative[-1]:
            raise ArtifactError(
                f"histogram {key}: +Inf bucket {cumulative[-1]} != "
                f"_count {declared}"
            )
    return {"families": families, "samples": samples}
