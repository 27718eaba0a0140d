"""Timing, span and statistics helpers owned by the perf benchmark.

Everything here measures the program *from outside*: spans are recorded
around calls into public ``repro`` functions, never inside them.  The
recorder keeps spans in memory and writes them out once, when the
workload ends, so recording costs two clock reads and one list append
per span.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: A ratio or share over a timed region shorter than this is reported as
#: ``null`` with a reason, never as a number: sub-second regions on this
#: box swing by more than the effects the ratios are meant to show.
MIN_REGION_S = 1.0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them
    (the same definition the driver's spread check uses)."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count of a timing sample."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    # the epsilon keeps 99.9% of 1000 at rank 999, not 999.0000000000001
    rank = max(1, math.ceil(p * len(sorted_values) / 100.0 - 1e-9))
    return sorted_values[rank - 1]


def ratio_or_null(name: str, value: Callable[[], float], unit: str,
                  *regions: float) -> Dict[str, Any]:
    """A derived ratio, or ``null`` with a reason when a timed region
    behind it is shorter than :data:`MIN_REGION_S` (or was never run)."""
    shortest = min(regions) if regions else 0.0
    if shortest < MIN_REGION_S:
        return {"name": name, "value": None, "unit": unit,
                "reason": (f"timed region {shortest:.4f} s is under the "
                           f"{MIN_REGION_S} s floor")}
    return {"name": name, "value": value(), "unit": unit}


# ---------------------------------------------------------------------------
# Timed regions and process memory
# ---------------------------------------------------------------------------

#: What one run of :func:`_kernel` takes on this box while the rest of the
#: host is idle.  Adjusted times are stated at this speed.
REFERENCE_KERNEL_S = 0.00095
#: How often a :class:`HostSpeed` region reads the host's speed.
SAMPLE_INTERVAL_S = 0.025


def _kernel() -> float:
    """Seconds that a fixed loop of dict and int work takes (about 1 ms)."""
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(12000):
        counts[i & 4095] = counts.get(i & 4095, 0) + i
    return time.perf_counter() - start


class HostSpeed:
    """A timed region, also stated at reference host speed::

        with HostSpeed() as region:
            work()
        region.wall_s, region.adjusted_s

    The box is a few cores of a shared host, and the same code runs 1.3 to
    2 times slower for seconds to minutes at a time while the neighbours
    are busy (CPU time moves with wall time: it is contention, not
    descheduling).  A slow spell can outlast a run, so neither more passes
    nor the fastest pass gets rid of it, and a reading taken before or
    after a region says little about the region: the speed also moves
    within a second.  So the region is sampled *in band*: an interval
    timer interrupts it every :data:`SAMPLE_INTERVAL_S` and the signal
    handler times :func:`_kernel` in the main thread, between two
    bytecodes of the work.  The work is slowed by about as much as the
    kernel is (log pass time against log mean reading: slope 1.0-1.5,
    r^2 0.6-0.9, on the four in-process workloads), so each stretch between
    two samples is scaled by ``REFERENCE_KERNEL_S / reading`` and the
    handler's own time is left out.  ``adjusted_s`` repeats two to five
    times as well as ``wall_s``.

    A stretch with no sample in it (a long call into C delays the
    handler) takes the speed of the sample that ends it; a region shorter
    than the interval takes three readings right after it.  Regions do
    not nest, and only the main thread can open one.
    """

    _current: Optional["HostSpeed"] = None
    _installed = False

    def __init__(self) -> None:
        self.wall_s = self.adjusted_s = 0.0
        #: ``(start, seconds)`` of each kernel run inside the region
        self.samples: List[Tuple[float, float]] = []
        self._sampling = False
        self._start = 0.0

    @staticmethod
    def _on_alarm(signum: int, frame: Any) -> None:
        region = HostSpeed._current
        if region is not None and not region._sampling:
            region._sampling = True
            at = time.perf_counter()
            _kernel()
            region.samples.append((at, time.perf_counter() - at))
            region._sampling = False

    def __enter__(self) -> "HostSpeed":
        if HostSpeed._current is not None:
            raise RuntimeError("HostSpeed regions do not nest")
        if not HostSpeed._installed:
            # Stays installed: a late alarm then finds no region and does
            # nothing, where the default action would end the process.
            signal.signal(signal.SIGALRM, HostSpeed._on_alarm)
            HostSpeed._installed = True
        HostSpeed._current = self
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        HostSpeed._current = None
        cursor, speed = self._start, None
        for at, took in self.samples:
            if at >= end:  # an alarm that was already on its way
                break
            speed = REFERENCE_KERNEL_S / took
            self.wall_s += at - cursor
            self.adjusted_s += (at - cursor) * speed
            cursor = at + took
        if speed is None:
            speed = REFERENCE_KERNEL_S / statistics.mean(_kernel() for _ in range(3))
        self.wall_s += end - cursor
        self.adjusted_s += (end - cursor) * speed


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` after a full collection; returns ``(result, wall_s)``.

    The result is returned so the caller consumes it *after* the clock
    stops but the work is forced inside the region (every timed call here
    returns a fully built list or report, never a lazy object)."""
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def timed_adjusted(fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """:func:`timed` inside a :class:`HostSpeed` region: returns
    ``(result, wall_s, wall_s at reference host speed)``."""
    gc.collect()
    with HostSpeed() as region:
        out = fn()
    return out, region.wall_s, region.adjusted_s


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child, in MB (``ru_maxrss`` is KB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def reap_children() -> None:
    """Stop and wait for every process this one started, so that none is
    alive (or a zombie) once the benchmark has exited.

    Pool workers are joined by ``ShardPool.close``; what is left is the
    ``multiprocessing`` resource tracker, a helper process that the first
    shared-memory segment starts and that otherwise ends only *after* its
    parent has gone, when it reads EOF on its pipe."""
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_mod, "_resource_tracker", None)
    # private, but the only way to end the tracker before this process does
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class SpanRecorder:
    """In-memory span log: ``[layer, fn, start, end, parent]`` rows.

    ``layer`` is the per-layer metric stem the span's self time is booked
    under (``congest.mem_bulk``, ``treerouting.stage0``, ...); ``fn`` is
    the wrapped function's name.  ``parent`` is the index of the span
    that was open when this one started (``-1`` for a root).

    With ``adjust`` every root span opened by :meth:`span` is a
    :class:`HostSpeed` region, and :meth:`root_seconds` states the spans at
    reference host speed (the untraced run's ``setup_s``).
    """

    def __init__(self, adjust: bool = False) -> None:
        self.spans: List[List[Any]] = []
        self.adjust = adjust
        #: root span index -> its seconds at reference host speed
        self.adjusted_s: Dict[int, float] = {}
        self._open: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, layer: str, fn: str = "") -> Iterator[None]:
        index = len(self.spans)
        row = [layer, fn or layer, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(row)
        region = HostSpeed() if self.adjust and not self._open else None
        self._open.append(index)
        if region is not None:
            region.__enter__()
        row[2] = time.perf_counter()
        try:
            yield
        finally:
            row[3] = time.perf_counter()
            self._open.pop()
            if region is not None:
                region.__exit__()
                self.adjusted_s[index] = region.adjusted_s

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span of ``layer`` around every call."""
        spans, stack, clock = self.spans, self._open, time.perf_counter
        name = getattr(fn, "__name__", layer)

        def traced(*args: Any, **kwargs: Any) -> Any:
            row = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            row[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, owner: Any, attr: str, layer: str) -> None:
        """Rebind ``owner.attr`` to its traced twin until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def root_seconds(self, first: int = 0) -> float:
        """Sum of the root spans from ``spans[first]`` on, each at reference
        host speed where it was sampled."""
        total = 0.0
        for index in range(first, len(self.spans)):
            _, _, start, end, parent = self.spans[index]
            if parent == -1:
                total += self.adjusted_s.get(index, end - start)
        return total

    def self_times(self, first: int = 0,
                   stop: Optional[int] = None) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-layer self seconds and call counts over ``spans[first:stop]``
        (a range that holds whole span trees).

        A span's self time is its duration minus the durations of its
        direct children; children never overlap (one thread, strict
        nesting), so the self times of a tree sum to its root's duration.
        """
        spans = self.spans
        stop = len(spans) if stop is None else stop
        child_s = [0.0] * stop
        for row in spans[first:stop]:
            if row[4] >= first:
                child_s[row[4]] += row[3] - row[2]
        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for index in range(first, stop):
            layer, _, start, end, _ = spans[index]
            seconds[layer] = seconds.get(layer, 0.0) + (end - start) - child_s[index]
            calls[layer] = calls.get(layer, 0) + 1
        return seconds, calls

    def write(self, path: str, **header: Any) -> None:
        """Dump every span (times relative to the first) as one JSON file."""
        origin = self.spans[0][2] if self.spans else 0.0
        doc = dict(header)
        doc["columns"] = ["layer", "fn", "start_s", "end_s", "parent"]
        doc["spans"] = [[layer, fn, start - origin, end - origin, parent]
                        for layer, fn, start, end, parent in self.spans]
        with open(path, "w") as fp:
            json.dump(doc, fp)
