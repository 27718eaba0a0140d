"""S18 live serving observability: the metrics bundle and its exposition.

The live counterpart of :mod:`repro.telemetry` (which records bounded
runs after the fact): a :class:`ServeMetrics` bundle that folds the
:class:`~repro.serve.ServeReport` of every serve call into counters,
:class:`QuantileSketch` histograms and worst-stretch exemplars, and
Prometheus text exposition (:func:`render_prometheus` / ``repro serve
--metrics-out``).  The engine has no metrics hook; the report is the one
measurement.  The stretch-SLO verdict itself is ``repro serve``'s
(``slo_verdict``).  See docs/observability.md ("Live metrics").
"""

from .exposition import (
    ExpositionError,
    parse_prometheus,
    render_prometheus,
    write_prometheus,
)
from .serve import ServeMetrics, exemplar_payload
from .sketch import QuantileSketch

__all__ = [
    "ExpositionError",
    "QuantileSketch",
    "ServeMetrics",
    "exemplar_payload",
    "parse_prometheus",
    "render_prometheus",
    "write_prometheus",
]
