"""The default collector: a span tree with per-span counter attribution.

A :class:`TelemetryCollector` attached via
:func:`repro.telemetry.events.collect` records:

* a tree of :class:`SpanNode`s (one per ``span(...)`` block, nested by
  runtime containment) with wall-clock per span;
* counters (``congest.rounds``, ``congest.messages``, ...) attributed to
  the innermost open span and summed globally;
* gauges (``memory.high_water_words``) keeping the maximum seen.

``profile()`` renders the span tree as an ASCII table with wall-clock and
the simulated/charged-round breakdown — the output of the CLI's
``--profile`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Counter columns shown by :meth:`TelemetryCollector.profile`.
_PROFILE_COUNTERS = ("congest.rounds", "congest.charged_rounds", "congest.messages")


@dataclass
class SpanNode:
    """One recorded span: timing, exclusive counters, children."""

    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    started: float = 0.0
    wall_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    def total(self, counter: str) -> float:
        """Counter sum over this span and all descendants."""
        return self.counters.get(counter, 0) + sum(
            c.total(counter) for c in self.children
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "wall_s": round(self.wall_s, 6),
            "counters": dict(self.counters),
        }
        if self.attrs:
            out["attrs"] = {k: repr(v) for k, v in self.attrs.items()}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class TelemetryCollector:
    """Accumulates spans, counters, and gauges from the event bus."""

    def __init__(self) -> None:
        self.roots: List[SpanNode] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self._stack: List[SpanNode] = []

    # -- bus callbacks -------------------------------------------------------

    def on_span_start(self, name: str, attrs: Dict[str, Any], now: float) -> None:
        node = SpanNode(name=name, attrs=dict(attrs), started=now)
        (self._stack[-1].children if self._stack else self.roots).append(node)
        self._stack.append(node)

    def on_span_end(self, name: str, now: float) -> None:
        # Pop back to the matching span so an exception-skipped exit cannot
        # misattribute later spans.
        while self._stack:
            node = self._stack.pop()
            node.wall_s = now - node.started
            if node.name == name:
                break

    def on_counter(self, name: str, value: float, attrs: Dict[str, Any]) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        if self._stack:
            own = self._stack[-1].counters
            own[name] = own.get(name, 0) + value

    def on_gauge(self, name: str, value: float, attrs: Dict[str, Any]) -> None:
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # -- reporting -----------------------------------------------------------

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def span_dicts(self) -> List[Dict[str, Any]]:
        return [r.to_dict() for r in self.roots]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spans": self.span_dicts(),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    def find(self, name: str) -> Optional[SpanNode]:
        """First span with the given name, depth-first."""

        def walk(nodes: List[SpanNode]) -> Optional[SpanNode]:
            for node in nodes:
                if node.name == name:
                    return node
                hit = walk(node.children)
                if hit is not None:
                    return hit
            return None

        return walk(self.roots)

    def profile(self) -> str:
        """ASCII span tree: wall-clock plus round/message breakdown."""
        return render_profile(self.span_dicts(), self.counters, self.gauges)


def _dict_total(node: Dict[str, Any], counter: str) -> float:
    """Counter sum over a serialized span dict and its descendants."""
    return node.get("counters", {}).get(counter, 0) + sum(
        _dict_total(c, counter) for c in node.get("children", ())
    )


def _merge_siblings(nodes: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate same-name sibling spans (wall-clock and counters summed),
    keeping first-appearance order; repeated-call noise (e.g. one
    ``congest/broadcast`` per pointer-jumping step) collapses to one row."""
    order: List[str] = []
    merged: Dict[str, Dict[str, Any]] = {}
    for node in nodes:
        name = node["name"]
        if name not in merged:
            merged[name] = {"name": name, "wall_s": 0.0, "counters": {},
                            "children": [], "count": 0}
            order.append(name)
        m = merged[name]
        m["wall_s"] += node.get("wall_s", 0)
        for key, val in node.get("counters", {}).items():
            m["counters"][key] = m["counters"].get(key, 0) + val
        m["children"].extend(node.get("children", ()))
        m["count"] += 1
    return [merged[name] for name in order]


def render_profile(
    spans: List[Dict[str, Any]],
    counters: Optional[Dict[str, float]] = None,
    gauges: Optional[Dict[str, float]] = None,
) -> str:
    """Render serialized spans (``SpanNode.to_dict`` form) as the ASCII
    profile table; shared by the live collector and the CLI's ``--profile``
    view of a stored :class:`~repro.telemetry.runrecord.RunRecord`."""
    counters = counters or {}
    gauges = gauges or {}
    rows: List[List[str]] = []

    def walk(node: Dict[str, Any], depth: int) -> None:
        label = node["name"]
        if node.get("count", 1) > 1:
            label += f" x{node['count']}"
        rows.append(
            ["  " * depth + label, f"{node.get('wall_s', 0):.4f}"]
            + [f"{_dict_total(node, c):.0f}" for c in _PROFILE_COUNTERS]
        )
        for child in _merge_siblings(node.get("children", [])):
            walk(child, depth + 1)

    for root in _merge_siblings(spans):
        walk(root, 0)
    if not rows:
        return "(no spans recorded)"
    headers = ["span", "wall_s", "rounds", "charged", "messages"]
    widths = [
        max(len(headers[i]), max(len(r[i]) for r in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    totals = "totals: " + " ".join(
        f"{c.split('.')[-1]}={counters.get(c, 0):.0f}" for c in _PROFILE_COUNTERS
    )
    if "memory.high_water_words" in gauges:
        totals += f" mem_hw={gauges['memory.high_water_words']:.0f}w"
    lines.append(totals)
    return "\n".join(lines)
