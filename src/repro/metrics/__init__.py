"""S18 live serving observability: metrics registry, sketches, exemplars.

The live counterpart of :mod:`repro.telemetry` (which records bounded
runs after the fact): a :class:`MetricsRegistry` of counters and
:class:`QuantileSketch`-backed histograms with worst-stretch exemplars,
and Prometheus text exposition
(:func:`render_prometheus` / ``repro serve --metrics-out``).  The
stretch-SLO verdict itself is ``repro serve``'s (``slo_verdict``).  See
docs/observability.md ("Live metrics").
"""

from .exposition import (
    ExpositionError,
    parse_prometheus,
    render_prometheus,
    write_prometheus,
)
from .registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    intern_labels,
)
from .serve import ServeMetrics, exemplar_payload
from .sketch import QuantileSketch

__all__ = [
    "Counter",
    "ExpositionError",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "ServeMetrics",
    "exemplar_payload",
    "intern_labels",
    "parse_prometheus",
    "render_prometheus",
    "write_prometheus",
]
