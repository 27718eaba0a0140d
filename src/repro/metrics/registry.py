"""The live metrics registry: counters, gauges, rate meters, histograms.

:class:`MetricsRegistry` is the process-local home of every live serving
metric.  It is deliberately *not* the telemetry event bus
(:mod:`repro.telemetry.events`): the bus records a bounded run and is
drained into a RunRecord afterwards, while the registry is a **living
snapshot** -- instruments are registered once, mutated on the hot path,
and scraped at any moment (``snapshot()`` for JSON, ``expose()`` for
Prometheus text format via :mod:`repro.metrics.exposition`).

Hot-path contract (its cost is the perf ledger's
``metrics.overhead_share``): instrument lookup
(``registry.counter(...)`` etc.) happens at *registration* time, never per
query, and labels are **pre-interned tuples** of ``(key, value)`` pairs --
a dict of labels per observation is exactly the hidden allocation that
share exists to show.  The returned
instrument objects are plain ``__slots__`` classes whose mutators are a
few attribute operations, cheap enough to ride inside the serve loop.

Instrument types:

* :class:`Counter` -- monotone total (``inc``);
* :class:`Gauge` -- last-write level (``set``);
* :class:`RateMeter` -- windowed event rate over a ring of time buckets
  (``mark`` / ``rate``), for live QPS without unbounded history;
* :class:`Histogram` -- a :class:`~repro.metrics.sketch.QuantileSketch`
  plus a bounded worst-``k`` exemplar reservoir: the queries with the
  largest observed values keep a small structured payload (source,
  target, path prefix, cache hit) so the p99.9 tail is *debuggable*,
  not just counted.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .sketch import QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabelTuple",
    "MetricsRegistry",
    "RateMeter",
    "intern_labels",
]

LabelTuple = Tuple[Tuple[str, str], ...]

def _valid_name(name: str) -> bool:
    """Prometheus metric/label name charset, validated at registration."""
    if not name:
        return False
    head = name[0]
    if not (head.isalpha() or head in "_:"):
        return False
    return all(c.isalnum() or c in "_:" for c in name)


def intern_labels(
    labels: Union[LabelTuple, Mapping[str, Any], None],
) -> LabelTuple:
    """Normalize labels to the canonical sorted tuple of ``(key, value)``.

    Accepts a mapping for *registration-time* convenience; the hot path
    never calls this (instruments are resolved once and held).
    """
    if not labels:
        return ()
    if isinstance(labels, Mapping):
        items = [(str(k), str(v)) for k, v in labels.items()]
    else:
        items = [(str(k), str(v)) for k, v in labels]
    for key, _ in items:
        if not _valid_name(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted(items))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelTuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A level: set to the latest measurement."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelTuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class RateMeter:
    """Windowed event rate over a ring of fixed-width time buckets.

    ``mark(n, now)`` adds ``n`` events at time ``now``; ``rate(now)``
    returns events/second over the trailing ``window_s``.  The clock is
    always passed in (no hidden ``time.time()``) so replays under a
    virtual clock stay deterministic.  Memory is ``bucket_count`` floats
    regardless of traffic.
    """

    __slots__ = ("name", "labels", "window_s", "_width", "_counts",
                 "_stamps", "total")

    def __init__(self, name: str, labels: LabelTuple,
                 window_s: float = 10.0, buckets: int = 20) -> None:
        if window_s <= 0 or buckets <= 0:
            raise ValueError("window_s and buckets must be positive")
        self.name = name
        self.labels = labels
        self.window_s = float(window_s)
        self._width = self.window_s / buckets
        self._counts = [0.0] * buckets
        self._stamps = [None] * buckets  # type: List[Optional[int]]
        self.total = 0.0

    def mark(self, n: float, now: float) -> None:
        self.total += n
        epoch = int(now / self._width)
        slot = epoch % len(self._counts)
        if self._stamps[slot] != epoch:
            self._stamps[slot] = epoch
            self._counts[slot] = 0.0
        self._counts[slot] += n

    def rate(self, now: float) -> float:
        """Events per second over the trailing window ending at ``now``."""
        epoch = int(now / self._width)
        lo = epoch - len(self._counts) + 1
        live = sum(c for c, s in zip(self._counts, self._stamps)
                   if s is not None and lo <= s <= epoch)
        return live / self.window_s


class Histogram:
    """A quantile sketch plus a worst-``k`` exemplar reservoir.

    ``add`` is the hot mutator (sketch ingestion only).  Exemplars ride a
    separate two-step path so the common case allocates nothing:
    ``wants_exemplar(value)`` is a cheap threshold check, and only when it
    answers True does the caller build the payload and call
    ``offer_exemplar`` -- a bounded min-heap keeps the ``k`` largest.
    """

    __slots__ = ("name", "labels", "sketch", "exemplar_limit", "_exemplars",
                 "_seq")

    def __init__(self, name: str, labels: LabelTuple,
                 relative_accuracy: float = 0.01,
                 exemplar_limit: int = 8) -> None:
        self.name = name
        self.labels = labels
        self.sketch = QuantileSketch(relative_accuracy=relative_accuracy)
        self.exemplar_limit = exemplar_limit
        #: min-heap of (value, seq, payload): root = smallest of the worst-k.
        self._exemplars: List[Tuple[float, int, Any]] = []
        self._seq = 0

    def add(self, value: float) -> None:
        self.sketch.add(value)

    def wants_exemplar(self, value: float) -> bool:
        if self.exemplar_limit <= 0:
            return False
        ex = self._exemplars
        return len(ex) < self.exemplar_limit or value > ex[0][0]

    def offer_exemplar(self, value: float, payload: Any) -> None:
        """Keep ``payload`` if ``value`` ranks among the worst observed."""
        if self.exemplar_limit <= 0:
            return
        self._seq += 1
        item = (float(value), self._seq, payload)
        if len(self._exemplars) < self.exemplar_limit:
            heapq.heappush(self._exemplars, item)
        elif item[0] > self._exemplars[0][0]:
            heapq.heapreplace(self._exemplars, item)

    def exemplars(self) -> List[Dict[str, Any]]:
        """Worst-first exemplar list (JSON-ready)."""
        out = []
        for value, _seq, payload in sorted(self._exemplars, reverse=True):
            entry = {"value": value}
            if isinstance(payload, Mapping):
                entry.update({str(k): v for k, v in payload.items()})
            elif payload is not None:
                entry["payload"] = payload
            out.append(entry)
        return out

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)

    @property
    def count(self) -> int:
        return self.sketch.count

    @property
    def sum(self) -> float:
        return self.sketch.total


#: type name -> instrument class (the registry's dispatch table).
_INSTRUMENTS = {
    "counter": Counter,
    "gauge": Gauge,
    "meter": RateMeter,
    "histogram": Histogram,
}


class _Family:
    """All instruments sharing one metric name (one per label set)."""

    __slots__ = ("name", "type", "help", "series")

    def __init__(self, name: str, type_: str, help_: str) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.series: Dict[LabelTuple, Any] = {}


class MetricsRegistry:
    """Named instrument families, scrapeable as JSON or Prometheus text.

    ``namespace`` prefixes every metric name (``repro_serve`` by
    default), matching Prometheus naming conventions.  Registering the
    same ``(name, labels)`` twice returns the existing instrument;
    re-registering a name with a different type raises.
    """

    def __init__(self, namespace: str = "repro_serve") -> None:
        if namespace and not _valid_name(namespace):
            raise ValueError(f"invalid namespace {namespace!r}")
        self.namespace = namespace
        self._families: Dict[str, _Family] = {}

    # -- registration --------------------------------------------------------

    def _register(self, type_: str, name: str, help_: str,
                  labels: Union[LabelTuple, Mapping[str, Any], None],
                  **kwargs: Any) -> Any:
        if not _valid_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        full = f"{self.namespace}_{name}" if self.namespace else name
        family = self._families.get(full)
        if family is None:
            family = self._families[full] = _Family(full, type_, help_)
        elif family.type != type_:
            raise ValueError(
                f"metric {full!r} already registered as {family.type}"
            )
        key = intern_labels(labels)
        instrument = family.series.get(key)
        if instrument is None:
            instrument = _INSTRUMENTS[type_](full, key, **kwargs)
            family.series[key] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labels: Union[LabelTuple, Mapping[str, Any], None] = None,
                ) -> Counter:
        return self._register("counter", name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Union[LabelTuple, Mapping[str, Any], None] = None,
              ) -> Gauge:
        return self._register("gauge", name, help, labels)

    def meter(self, name: str, help: str = "",
              labels: Union[LabelTuple, Mapping[str, Any], None] = None,
              *, window_s: float = 10.0, buckets: int = 20) -> RateMeter:
        return self._register("meter", name, help, labels,
                              window_s=window_s, buckets=buckets)

    def histogram(self, name: str, help: str = "",
                  labels: Union[LabelTuple, Mapping[str, Any], None] = None,
                  *, relative_accuracy: float = 0.01,
                  exemplar_limit: int = 8) -> Histogram:
        return self._register("histogram", name, help, labels,
                              relative_accuracy=relative_accuracy,
                              exemplar_limit=exemplar_limit)

    # -- scraping ------------------------------------------------------------

    def families(self) -> Iterable[_Family]:
        return self._families.values()

    def get(self, name: str) -> Optional[_Family]:
        full = f"{self.namespace}_{name}" if self.namespace else name
        return self._families.get(full)

    def snapshot(self, *, now: Optional[float] = None,
                 quantiles: Sequence[float] = (0.5, 0.9, 0.99),
                 ) -> Dict[str, Any]:
        """One JSON-ready dict of every family's current state."""
        now = time.time() if now is None else now
        out: Dict[str, Any] = {}
        for family in self._families.values():
            series = []
            for key, inst in family.series.items():
                entry: Dict[str, Any] = {"labels": dict(key)}
                if family.type == "histogram":
                    sk = inst.sketch
                    entry.update({
                        "count": sk.count,
                        "sum": sk.total,
                        "min": sk.min_value,
                        "max": sk.max_value,
                        "quantiles": {str(q): sk.quantile(q)
                                      for q in quantiles},
                    })
                    exemplars = inst.exemplars()
                    if exemplars:
                        entry["exemplars"] = exemplars
                elif family.type == "meter":
                    entry["total"] = inst.total
                    entry["rate_per_s"] = inst.rate(now)
                else:
                    entry["value"] = inst.value
                series.append(entry)
            out[family.name] = {
                "type": family.type,
                "help": family.help,
                "series": series,
            }
        return out

    def expose(self, *, now: Optional[float] = None) -> str:
        """Prometheus text exposition format (``# HELP`` / ``# TYPE``)."""
        from .exposition import render_prometheus

        return render_prometheus(self, now=now)
