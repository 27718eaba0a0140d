"""S16: the query-serving subsystem (docs/serving.md).

Preprocessing builds schemes; this package *serves* them at volume:

* :mod:`~repro.serve.compile` -- pack scheme artifacts into flat,
  integer-indexed tables (interned ids, per-tree arrays, precomputed hop
  weights);
* :mod:`~repro.serve.engine` -- the batched query engine: LRU decision
  cache, per-query hop caps, count-and-continue failure policy,
  differentially tested against the reference routers;
* :mod:`~repro.serve.workloads` -- seeded traffic models (uniform, Zipf,
  gravity, adversarial worst-stretch mining);
* :mod:`~repro.serve.harness` -- throughput / latency / cache / stretch-SLO
  reporting behind the ``repro serve`` CLI.
"""

from .compile import (
    CompiledGraphScheme,
    CompiledScheme,
    CompiledTreeScheme,
    PackedLabel,
    PackedTree,
    compile_scheme,
)
from .engine import DecisionCache, RouteBatch, ServeEngine, ServeResult
from .harness import (
    SKETCH_ACCURACY,
    ServeReport,
    percentile,
    run_serving,
    serve_pairs,
    slo_verdict,
)
from .workloads import (
    WORKLOADS,
    adversarial_pairs,
    gravity_pairs,
    make_workload,
    uniform_pairs,
    zipf_pairs,
)

__all__ = [
    "SKETCH_ACCURACY",
    "CompiledGraphScheme",
    "CompiledScheme",
    "CompiledTreeScheme",
    "DecisionCache",
    "PackedLabel",
    "PackedTree",
    "RouteBatch",
    "ServeEngine",
    "ServeReport",
    "ServeResult",
    "WORKLOADS",
    "adversarial_pairs",
    "compile_scheme",
    "gravity_pairs",
    "make_workload",
    "percentile",
    "run_serving",
    "serve_pairs",
    "slo_verdict",
    "uniform_pairs",
    "zipf_pairs",
]
