"""The telemetry event bus: spans, phases, counters, gauges, rounds and
charges.

Every execution path in the repo funnels its observability through this
module; it is the only way to listen to a network.  Instrumented sites
(the tree-routing stages, ``repro.core.build``) call :func:`span` /
:func:`emit` / :func:`gauge`, every protocol stage that runs rounds is a
:class:`phase`, and the round engines call each
:class:`Listener`'s ``on_round`` / ``on_charge``, unconditionally; when
no listener is attached the calls reduce to one truthiness check on the
module-level ``_collectors`` list (spans additionally return a shared
no-op context manager), so round counts, memory accounting, and
wall-clock are unchanged for untraced runs.

Attach a collector with :func:`collect`::

    from repro.telemetry import collect

    with collect() as tele:
        build_distributed_tree_scheme(net, tree)
    print(tele.profile())          # span tree: wall-clock + round breakdown

Span names are slash-paths (``tree/stage2``, ``build/hopset``); counters
use dotted names (``congest.rounds``).  Counter events are attributed to
the innermost open span *and* to the collector's global totals, so a span
tree doubles as a simulated-round breakdown.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from ..errors import InvariantViolation

#: Attached listeners.  Empty list == telemetry disabled; hot paths test
#: this directly (``if _collectors:``) to keep the disabled cost at one
#: load + truthiness check.  Mutated in place only: the engines import it.
_collectors: List[Any] = []


class Listener:
    """No-op base of a bus listener: a subclass overrides what it reads.
    ``on_round`` follows every round an engine closes (the delivered
    messages in hand), ``on_charge`` every charge, a wide message's extra
    slots included; both after ``net.metrics`` counted the event."""

    __slots__ = ()

    def on_span_start(self, name: str, attrs: Dict[str, Any], now: float) -> None:
        pass

    def on_span_end(self, name: str, now: float) -> None:
        pass

    def on_counter(self, name: str, value: float, attrs: Dict[str, Any]) -> None:
        pass

    def on_gauge(self, name: str, value: float, attrs: Dict[str, Any]) -> None:
        pass

    def on_round(self, net: Any, delivered: List[Any], words: int) -> None:
        pass

    def on_charge(self, net: Any, rounds: int, messages: int, words: int) -> None:
        pass


def enabled() -> bool:
    """True when at least one listener is attached."""
    return bool(_collectors)


def attach(collector: Any) -> Any:
    """Attach a :class:`Listener` to the bus; returns it for chaining."""
    _collectors.append(collector)
    return collector


def detach(collector: Any) -> None:
    """Detach a previously attached listener (no error if absent)."""
    try:
        _collectors.remove(collector)
    except ValueError:
        pass


class _NullSpan:
    """Shared no-op context manager returned when telemetry is disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: notifies every collector on enter/exit."""

    __slots__ = ("name", "attrs")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        now = time.perf_counter()
        for c in _collectors:
            c.on_span_start(self.name, self.attrs, now)
        return self

    def __exit__(self, *exc):
        now = time.perf_counter()
        for c in _collectors:
            c.on_span_end(self.name, now)
        return False


def span(name: str, **attrs: Any):
    """Context manager marking a named stage of an execution.

    Zero-cost when disabled: returns a shared no-op context manager.
    """
    if not _collectors:
        return _NULL_SPAN
    return _Span(name, attrs)


class phase:
    """``with phase(net, name):`` -- the one stage marker.

    Opens a :class:`~repro.congest.metrics.PhaseRecord` called ``name`` on
    ``net.metrics`` for the block, and with a listener attached a span of
    the same name, closed only if this block opened it.  Nothing inside a
    phase opens a span, so a phase span is a leaf and the span tree counts
    the rounds ``by_phase()`` counts.  Phases do not nest (an
    :class:`~repro.errors.InvariantViolation`); the record closes when
    the block raises.
    """

    __slots__ = ("_metrics", "_name", "_span")

    def __init__(self, net: Any, name: str):
        self._metrics = net.metrics
        self._name = name
        self._span = None

    def __enter__(self) -> None:
        metrics = self._metrics
        if metrics.phase_name is not None:
            raise InvariantViolation(
                f"phase {self._name!r} opened inside phase {metrics.phase_name!r}"
            )
        metrics.begin_phase(self._name)
        if _collectors:
            self._span = _Span(self._name, {})
            self._span.__enter__()

    def __exit__(self, *exc) -> bool:
        self._metrics.end_phase()
        if self._span is not None:
            self._span.__exit__()
        return False


def emit(name: str, value: float = 1, **attrs: Any) -> None:
    """Increment counter ``name`` by ``value`` (no-op when disabled)."""
    if not _collectors:
        return
    for c in _collectors:
        c.on_counter(name, value, attrs)


def gauge(name: str, value: float, **attrs: Any) -> None:
    """Record a level measurement; collectors keep the maximum seen."""
    if not _collectors:
        return
    for c in _collectors:
        c.on_gauge(name, value, attrs)


class collect:
    """``with collect() as tele:`` — attach a collector for the block.

    A specific listener may be passed in; by default a fresh
    :class:`~repro.telemetry.collector.TelemetryCollector` is created.
    """

    def __init__(self, collector: Any = None):
        if collector is None:
            from .collector import TelemetryCollector

            collector = TelemetryCollector()
        self.collector = collector

    def __enter__(self):
        attach(self.collector)
        return self.collector

    def __exit__(self, *exc):
        detach(self.collector)
        return False
