"""S19 trace model: per-query hop spans with decision provenance.

A :class:`QueryTrace` is the causal record of one served query: which
hierarchy level / cluster tree / landmark the source rule committed to
(read off the committed candidate of the compiler's ``decisions``
table), every forwarded hop annotated with its decision kind
(``parent`` ascent, ``heavy``/``light`` descent), and — once
:mod:`repro.tracing.attribution` has run — an exact split of
``actual - optimal`` route cost.

Traces are built *off* the hot path (see :mod:`repro.tracing.recorder`);
both classes use ``__slots__`` anyway so a burst of sampled captures stays
cheap, matching the ``ServeResult`` discipline.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

NodeId = Hashable


def _json_id(value: Any) -> Any:
    """A vertex id as JSON scalar (kept as-is when already jsonable)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


class HopSpan:
    """One forwarded hop inside a traced query.

    ``kind`` names the forwarding decision that produced the hop:
    ``"parent"`` (ascent toward the committed tree's root), ``"heavy"``
    (heavy-child descent) or ``"light"`` (light-edge shortcut from the
    destination label).  ``excess`` is filled by attribution: the hop's
    weight minus the shortest-path progress it makes toward the target
    (0.0 for a hop on a shortest path).
    """

    __slots__ = ("index", "source", "dest", "kind", "weight", "excess")

    def __init__(
        self,
        index: int,
        source: NodeId,
        dest: NodeId,
        kind: str,
        weight: float,
        excess: Optional[float] = None,
    ) -> None:
        self.index = index
        self.source = source
        self.dest = dest
        self.kind = kind
        self.weight = weight
        self.excess = excess

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "source": _json_id(self.source),
            "dest": _json_id(self.dest),
            "kind": self.kind,
            "weight": self.weight,
            "excess": self.excess,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "HopSpan":
        return cls(
            index=int(d.get("index", 0)),
            source=d.get("source"),
            dest=d.get("dest"),
            kind=str(d.get("kind", "?")),
            weight=float(d.get("weight", 0.0)),
            excess=d.get("excess"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HopSpan({self.source!r}->{self.dest!r} {self.kind} "
                f"w={self.weight})")


class QueryTrace:
    """The full trace of one sampled query.

    ``via`` records the sampling tier that retained it (``"head"`` for the
    seeded rate sampler, ``"tail"`` for the worst-stretch / failure
    buffer).  ``attribution`` maps hierarchy level (as a string key, for
    JSON) to the share of ``actual - optimal`` charged to it; the committed
    level's bucket is computed in closed form so the per-trace sum is
    *exactly* ``actual - optimal`` (asserted in tests and by
    ``repro explain``).  ``phases`` splits the same excess into ``ascent``
    (parent hops) and ``descent`` (heavy/light hops), again exactly.
    """

    __slots__ = (
        "trace_id", "source", "target", "via",
        "ok", "error", "level", "tree_id", "root", "candidate_index",
        "dist_to_root", "bunch_levels", "hops", "length",
        "optimal", "stretch", "attribution", "phases",
    )

    def __init__(
        self,
        trace_id: str,
        source: NodeId,
        target: NodeId,
        *,
        via: str = "head",
    ) -> None:
        self.trace_id = trace_id
        self.source = source
        self.target = target
        self.via = via
        self.ok = False
        self.error: Optional[str] = None
        self.level: Optional[int] = None
        self.tree_id: Optional[Hashable] = None
        self.root: Optional[NodeId] = None
        self.candidate_index: Optional[int] = None
        self.dist_to_root: Optional[float] = None
        self.bunch_levels: Tuple[int, ...] = ()
        self.hops: List[HopSpan] = []
        self.length = 0.0
        self.optimal: Optional[float] = None
        self.stretch: Optional[float] = None
        self.attribution: Dict[str, float] = {}
        self.phases: Dict[str, float] = {}

    @property
    def excess(self) -> Optional[float]:
        """``actual - optimal`` route cost, when attribution has run."""
        if not self.ok or self.optimal is None:
            return None
        return self.length - self.optimal

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "source": _json_id(self.source),
            "target": _json_id(self.target),
            "via": self.via,
            "ok": self.ok,
            "level": self.level,
            "tree_id": _json_id(self.tree_id),
            "root": _json_id(self.root),
            "candidate_index": self.candidate_index,
            "dist_to_root": self.dist_to_root,
            "bunch_levels": list(self.bunch_levels),
            "hops": [h.to_dict() for h in self.hops],
            "length": self.length,
            "optimal": self.optimal,
            "stretch": self.stretch,
            "attribution": dict(self.attribution),
            "phases": dict(self.phases),
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "QueryTrace":
        trace = cls(
            trace_id=str(d.get("trace_id", "")),
            source=d.get("source"),
            target=d.get("target"),
            via=str(d.get("via", "head")),
        )
        trace.ok = bool(d.get("ok", False))
        trace.error = d.get("error")
        trace.level = d.get("level")
        trace.tree_id = d.get("tree_id")
        trace.root = d.get("root")
        trace.candidate_index = d.get("candidate_index")
        trace.dist_to_root = d.get("dist_to_root")
        trace.bunch_levels = tuple(d.get("bunch_levels", ()))
        trace.hops = [HopSpan.from_dict(h) for h in d.get("hops", [])]
        trace.length = float(d.get("length", 0.0))
        trace.optimal = d.get("optimal")
        trace.stretch = d.get("stretch")
        trace.attribution = dict(d.get("attribution", {}))
        trace.phases = dict(d.get("phases", {}))
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else f"failed: {self.error}"
        return (f"QueryTrace({self.trace_id} "
                f"{self.source!r}->{self.target!r} via={self.via} "
                f"level={self.level} hops={len(self.hops)} {state})")
