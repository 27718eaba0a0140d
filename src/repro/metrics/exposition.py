"""Prometheus text exposition: render a metrics bundle, parse it back.

``render_prometheus`` writes the classic text format
(https://prometheus.io/docs/instrumenting/exposition_formats/) of a
:class:`~repro.metrics.ServeMetrics` bundle: one ``# HELP`` / ``# TYPE``
block per family, samples as ``name number``.  Histograms follow the
native histogram text convention -- cumulative ``_bucket{le="..."}``
series over the sketch's log-bucket upper bounds plus ``_sum`` /
``_count`` -- so the snapshot is directly scrapeable/graphable.

``parse_prometheus`` is the structural inverse used by the test suite
and by anything that wants to diff two snapshots: it validates HELP/TYPE
ordering, sample syntax, bucket monotonicity, and the
``+Inf``-bucket-equals-``_count`` histogram invariant, returning
families as plain dicts.

The worst-stretch exemplars render in the
OpenMetrics style — a `` # {label="value",...} value`` trailer on the
bucket line the exemplar's value falls in — and parse back into the
family's ``exemplars`` list, so exemplar payloads (source/target/hops/
trace_id) round-trip through ``parse_prometheus`` instead of being
dropped at the text boundary.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from .serve import ServeMetrics

__all__ = ["parse_prometheus", "render_prometheus", "write_prometheus"]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _exemplar_text(entry: Dict[str, Any]) -> str:
    """One exemplar as an OpenMetrics-style bucket-line trailer.

    ``entry`` is one of the bundle's exemplars: ``{"value": v}`` plus the
    payload keys.  Payload values are stringified (the payload
    builder already ``repr``s anything non-scalar), so the trailer always
    survives :func:`parse_prometheus`.
    """
    labels = ",".join(
        f'{k}="{_escape_label(str(entry[k]))}"'
        for k in sorted(entry) if k != "value")
    return " # {" + labels + "} " + _fmt_value(entry["value"])


def _pop_bucket_exemplar(
    remaining: List[Dict[str, Any]],
    lo: Optional[float],
    hi: float,
) -> Optional[Dict[str, Any]]:
    """Take the worst not-yet-rendered exemplar that falls in this
    bucket (``lo < value <= hi``; the text format fits one per line)."""
    for i, entry in enumerate(remaining):
        value = entry.get("value", 0.0)
        if value <= hi and (lo is None or value > lo):
            return remaining.pop(i)
    return None


def render_prometheus(metrics: "ServeMetrics") -> str:
    """The whole bundle in Prometheus text exposition format."""
    lines: List[str] = []
    for name, help_, value in metrics.counters():
        lines += [f"# HELP {name} {_escape_help(help_)}",
                  f"# TYPE {name} counter",
                  f"{name} {_fmt_value(value)}"]
    for name, help_, sketch, exemplars in metrics.histograms():
        lines += [f"# HELP {name} {_escape_help(help_)}",
                  f"# TYPE {name} histogram"]
        remaining = list(exemplars)
        cumulative = 0
        prev_upper: Optional[float] = None
        for upper, count in sketch.bucket_bounds():
            cumulative += count
            le = "0" if upper == 0.0 else repr(round(float(upper), 9))
            line = f'{name}_bucket{{le="{le}"}} {cumulative}'
            exemplar = _pop_bucket_exemplar(remaining, prev_upper,
                                            float(upper))
            if exemplar is not None:
                line += _exemplar_text(exemplar)
            lines.append(line)
            prev_upper = float(upper)
        line = f'{name}_bucket{{le="+Inf"}} {sketch.count}'
        if remaining:
            # Anything left (empty sketch edge cases) rides the +Inf
            # line so no exemplar is silently dropped.
            line += _exemplar_text(remaining[0])
        lines += [line, f"{name}_sum {_fmt_value(sketch.total)}",
                  f"{name}_count {sketch.count}"]
    return "\n".join(lines) + "\n"


def write_prometheus(metrics: "ServeMetrics",
                     path: Union[str, Path]) -> Path:
    """Render the bundle to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_prometheus(metrics))
    return path


# ---------------------------------------------------------------------------
# Parsing (structural validation for tests and snapshot diffing)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"\s*(?:,|$)'
)

_ESCAPE_RE = re.compile(r'\\(["\\n])')


class ExpositionError(ValueError):
    """A structural violation in Prometheus exposition text."""


def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_RE.match(text, pos)
        if match is None:
            raise ExpositionError(f"malformed label segment: {text[pos:]!r}")
        # One pass: ``\\`` then ``n`` is a backslash and an ``n``.
        value = _ESCAPE_RE.sub(
            lambda m: "\n" if m.group(1) == "n" else m.group(1),
            match.group("value"))
        labels[match.group("key")] = value
        pos = match.end()
    return labels


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        raise ExpositionError(f"malformed sample value {text!r}")


def _parse_exemplar(text: str, lineno: int) -> Dict[str, Any]:
    """Parse one ``{label="value",...} value`` exemplar trailer."""
    if not text.startswith("{"):
        raise ExpositionError(
            f"line {lineno}: malformed exemplar trailer {text!r}")
    end = text.rfind("} ")
    if end == -1:
        raise ExpositionError(
            f"line {lineno}: exemplar trailer missing value: {text!r}")
    labels = _parse_labels(text[1:end])
    value = _parse_value(text[end + 2:].strip())
    return {"labels": labels, "value": value}


def _base_family(name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse exposition text into ``{family: {type, help, samples}}``.

    ``samples`` is a list of ``(metric_name, labels_dict, value)``.
    Bucket lines may carry an OpenMetrics-style exemplar trailer
    (`` # {labels} value``); these parse into the family's ``exemplars``
    list as ``{"metric", "labels", "value"}`` dicts, and the sample
    triple stays clean.  Raises :class:`ExpositionError` on structural
    violations: a sample before its ``# TYPE``, a ``# HELP`` whose family
    never gets a ``# TYPE``, malformed lines or exemplar trailers,
    non-monotone histogram buckets, or a ``+Inf`` bucket disagreeing with
    ``_count``.
    """
    families: Dict[str, Dict[str, Any]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                raise ExpositionError(f"line {lineno}: malformed HELP")
            fam = families.setdefault(
                _base_family(parts[2]),
                {"type": None, "help": "", "samples": []})
            fam["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ExpositionError(f"line {lineno}: malformed TYPE")
            _, _, name, ftype = parts
            if ftype not in ("counter", "gauge", "histogram", "summary",
                             "untyped"):
                raise ExpositionError(
                    f"line {lineno}: unknown type {ftype!r}")
            fam = families.setdefault(
                _base_family(name),
                {"type": None, "help": "", "samples": []})
            fam.setdefault("types", {})[name] = ftype
            if fam["type"] is None:
                fam["type"] = ftype
            continue
        if line.startswith("#"):
            continue
        # Split an exemplar trailer off before the sample regex (whose
        # value group would otherwise choke on the " # {...}" tail).
        exemplar = None
        cut = line.find(" # {")
        if cut != -1:
            exemplar = _parse_exemplar(line[cut + 3:], lineno)
            line = line[:cut]
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ExpositionError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        base = _base_family(name)
        fam = families.get(base)
        if fam is None or fam["type"] is None:
            raise ExpositionError(
                f"line {lineno}: sample {name!r} before its # TYPE")
        labels = _parse_labels(match.group("labels") or "")
        fam["samples"].append((name, labels, _parse_value(match.group("value"))))
        if exemplar is not None:
            exemplar["metric"] = name
            fam.setdefault("exemplars", []).append(exemplar)

    for base, fam in families.items():
        if fam["type"] is None:
            raise ExpositionError(f"{base}: # HELP without a # TYPE")
        if fam["type"] != "histogram":
            continue
        buckets = [(s[1], s[2]) for s in fam["samples"]
                   if s[0] == base + "_bucket"]
        counts = {tuple(sorted((k, v) for k, v in s[1].items())): s[2]
                  for s in fam["samples"] if s[0] == base + "_count"}
        by_series: Dict[Tuple, List[Tuple[float, float]]] = {}
        for labels, value in buckets:
            le = labels.get("le")
            if le is None:
                raise ExpositionError(f"{base}_bucket sample without 'le'")
            rest = tuple(sorted((k, v) for k, v in labels.items()
                                if k != "le"))
            bound = math.inf if le == "+Inf" else float(le)
            by_series.setdefault(rest, []).append((bound, value))
        for rest, series in by_series.items():
            series.sort()
            values = [v for _, v in series]
            if values != sorted(values):
                raise ExpositionError(
                    f"{base}: histogram buckets not cumulative")
            if series[-1][0] != math.inf:
                raise ExpositionError(f"{base}: missing +Inf bucket")
            total = counts.get(rest)
            if total is not None and series[-1][1] != total:
                raise ExpositionError(
                    f"{base}: +Inf bucket {series[-1][1]} != _count {total}")
    return families
