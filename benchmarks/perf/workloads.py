"""The six workloads of the perf benchmark.

Each workload is one object with the same life cycle, driven by
``run.py``:

``prepare``      set-up, timed step by step (the steps sum to ``setup_s``);
                 the checks that need set-up intermediates run between
                 steps, outside the clock;
``run_pass``     one timed operation -- a build, or one pass over the
                 query stream;
``judge``        after the clock stops: count failed operations and check
                 that the counts a pass produced repeat exactly;
``install``      traced run only: rebind the public functions of each
                 layer to span-recording twins;
``layer_extras`` traced run only: the per-layer measurements that are not
                 span self times (counts read from public objects, extra
                 passes with instruments attached, ...).

The load is closed-loop from this one process: ``route_many`` and
``ShardPool.serve`` return only when every reply is in, and the next pass
starts after that.  Inputs come from ``--seed`` alone.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import repro.core.build as core_build
import repro.treerouting.scheme as tree_scheme
from harness import MIN_REGION_S, SpanRecorder, percentile, ratio_or_null, timed
from repro import telemetry
from repro.congest.network import Network
from repro.congest.reference import ReferenceNetwork
from repro.core.build import build_distributed_scheme
from repro.errors import ReproError, RoutingFailure
from repro.graphs import random_connected_graph
from repro.graphs.generators import spanning_tree_of
from repro.metrics import ServeMetrics
from repro.routing.router import measure_stretch, route_in_graph
from repro.routing.serialization import graph_scheme_from_dict, graph_scheme_to_dict
from repro.routing.validation import verify_graph_scheme, verify_tree_scheme
from repro.serve import ServeEngine, ServeReport, compile_scheme, make_workload, serve_pairs
from repro.shard import ShardPool, from_buffers, lower_compiled, partition_pairs, seal_to_buffers
from repro.tracing import Tracer
from repro.treerouting.scheme import build_distributed_tree_scheme
from repro.tz import build_centralized_scheme
from repro.tz.hierarchy import Hierarchy

Layers = Dict[str, float]
Derived = List[Dict[str, Any]]


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  ``FULL`` is the benchmark; ``SMOKE`` only exercises
    the code paths (its regions are far under the 1 s floor, so every
    timing ratio it derives is ``null``)."""

    tree_n: int
    tree_check_n: int
    graph_n: int
    graph_check_n: int
    serve_n: int
    hot_queries: int
    cold_queries: int
    pool_queries: int
    check_sample: int
    latency_queries: int
    reference_queries: int
    pool_check_queries: int
    verify_pairs: int
    stretch_pairs: int
    k: int = 3
    epsilon: float = 0.05
    cache_size: int = 4096
    zipf_alpha: float = 2.0


FULL = Sizes(
    tree_n=8000, tree_check_n=400, graph_n=600, graph_check_n=150,
    serve_n=2000, hot_queries=300_000, cold_queries=200_000,
    pool_queries=150_000, check_sample=2000,
    latency_queries=200_000, reference_queries=100_000,
    pool_check_queries=20_000, verify_pairs=500, stretch_pairs=150,
)
SMOKE = Sizes(
    tree_n=300, tree_check_n=80, graph_n=120, graph_check_n=100,
    serve_n=150, hot_queries=4000, cold_queries=3000, pool_queries=3000,
    check_sample=200, latency_queries=2000,
    reference_queries=500, pool_check_queries=1000, verify_pairs=50,
    stretch_pairs=30,
)


def balanced_hierarchy(graph: Any, k: int, seed: int) -> Hierarchy:
    """A Thorup-Zwick hierarchy whose level sizes are exactly the expected
    ``n^(1 - i/k)``: the seed picks *which* vertices are landmarks, not
    how many.  With independent coins the top level of n=2000, k=3 holds
    anything from 6 to 16 vertices, and table size, set-up time and RSS
    swing by +-18% from seed to seed -- more than any bound here."""
    rng = random.Random(seed)
    n = graph.number_of_nodes()
    levels = [set(graph.nodes)]
    for i in range(1, k):
        size = max(1, round(n ** (1.0 - i / k)))
        levels.append(set(rng.sample(sorted(levels[-1], key=repr), size)))
    return Hierarchy(k=k, levels=levels)


@dataclass(frozen=True)
class TracedRun:
    """What ``run.py`` measured before it asks for ``layer_extras``."""

    #: median wall of the passes run with the traced twins installed
    traced_op_s: float
    #: median wall of the same number of passes without them
    untraced_op_s: float
    #: per-layer span self seconds, per operation
    layer_s: Layers
    #: wall of the whole traced arm: the timed region behind every
    #: per-operation number above
    region_s: float


class Workload:
    """Life cycle shared by all workloads (see the module docstring)."""

    name = ""
    #: layer the root span of a traced pass is booked under
    pass_layer = ""
    #: set-ups per untraced run; ``setup_s`` is their median
    setup_reps = 3
    #: fewest timed operations per untraced run
    min_passes = 5
    #: operations per arm (untraced, traced) of the traced run
    traced_passes = 2

    def __init__(self, seed: int, sizes: Sizes, rec: SpanRecorder) -> None:
        self.seed = seed
        self.sizes = sizes
        self.rec = rec
        self.checks = 0
        self.check_failures: List[str] = []
        self.skipped: List[Dict[str, str]] = []
        #: what the first judged pass counted; later passes must repeat it
        self.expected: Any = None

    # -- life cycle ----------------------------------------------------------

    def prepare(self, check: bool) -> float:
        """One full set-up; returns the sum of its timed steps."""
        first = len(self.rec.spans)
        self.setup(check)
        return self.rec.root_seconds(first)

    def setup(self, check: bool) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop everything ``setup`` built (before the next repetition,
        and when the workload ends)."""

    def run_pass(self) -> Any:
        raise NotImplementedError

    def judge(self, out: Any) -> Tuple[int, int]:
        """``(attempted, failed)`` operations of one pass."""
        raise NotImplementedError

    def install(self) -> None:
        """Rebind layer entry points to traced twins (``rec.restore``
        undoes it).  Workloads that call their layers directly have
        nothing to rebind."""

    def layer_extras(self, run: TracedRun) -> Tuple[Layers, Derived]:
        """``(raw per-layer values, derived ratios)`` of the traced run."""
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------

    def expect(self, label: str, ok: bool, detail: str = "") -> bool:
        self.checks += 1
        if not ok:
            self.check_failures.append(f"{self.name}: {label} {detail}".rstrip())
        return ok

    def repeats(self, label: str, counts: Any) -> bool:
        """Counts read after a pass must be identical on every pass."""
        if self.expected is None:
            self.expected = counts
            return True
        return self.expect(label, counts == self.expected,
                           f"{counts!r} != {self.expected!r}")


# ---------------------------------------------------------------------------
# Builds
# ---------------------------------------------------------------------------

#: owner -> span layer -> names rebound on it for a traced build.
#: ``MemoryMeter.store``/``free`` are deliberately not wrapped (millions
#: of calls): per-vertex metering stays inside the stage self times.
_PATCHES = (
    (tree_scheme, {
        "treerouting.partition": ("partition_tree",),
        "congest.bfs": ("build_bfs_tree",),
        "treerouting.stage0": ("run_stage0",),
        "treerouting.stage1": ("run_stage1",),
        "treerouting.stage2": ("run_stage2",),
        "treerouting.stage3": ("run_stage3",),
    }),
    (core_build, {
        "congest.bfs": ("build_bfs_tree",),
        # the hierarchy itself is an input here (``balanced_hierarchy``)
        "tz.pivots": ("compute_pivots",),
        "core.low_levels": ("build_exact_low_level_clusters",),
        "hopsets.build": ("build_hopset",),
        "core.high_levels": ("build_high_level_clusters",),
        "core.tree_schemes": ("build_tree_schemes",),
        "core.assembly": ("assemble_tables", "assemble_labels"),
    }),
    (Network, {"congest.mem_bulk": ("store_all", "free_key", "free_all")}),
)


class BuildWorkload(Workload):
    """Shared by ``tree_build`` and ``graph_build``: one operation is
    ``Network(graph)`` plus one distributed construction."""

    #: self time of the root span: what no wrapped layer accounts for
    pass_layer = "bench.unattributed"
    min_passes = 3

    def __init__(self, seed: int, sizes: Sizes, rec: SpanRecorder) -> None:
        super().__init__(seed, sizes, rec)
        self.network = Network
        self.graph: Any = None
        self.last_net: Optional[Network] = None

    def release(self) -> None:
        self.graph = self.last_net = None

    def install(self) -> None:
        self.rec.patch(self, "network", "congest.network_init")
        for owner, layers in _PATCHES:
            for layer, names in layers.items():
                for attr in names:
                    self.rec.patch(owner, attr, layer)

    def artifact_layers(self) -> Layers:
        """Counts read from what the last build returned."""
        raise NotImplementedError

    def layer_extras(self, run: TracedRun) -> Tuple[Layers, Derived]:
        # Simulated statistics: a host-time change must leave every one
        # of them identical.
        counters = self.last_net.metrics.to_dict()
        high_water = self.last_net.memory_high_water()
        layers = {
            "congest.rounds_simulated": counters["rounds"],
            "congest.rounds_charged": counters["charged_rounds"],
            "congest.messages": counters["messages"],
            "congest.message_words": counters["message_words"],
            "congest.max_memory_words": max(high_water.values()),
            "congest.mean_memory_words": sum(high_water.values()) / len(high_water),
        }
        layers.update(self.artifact_layers())
        op_s = run.traced_op_s
        derived = [
            ratio_or_null("congest.mem_bulk_share",
                          lambda: run.layer_s["congest.mem_bulk"] / op_s,
                          "ratio", run.region_s),
            ratio_or_null("congest.host_us_per_round",
                          lambda: 1e6 * op_s / counters["total_rounds"],
                          "us", run.region_s),
        ]
        return layers, derived


class TreeBuild(BuildWorkload):
    name = "tree_build"
    traced_passes = 3

    def setup(self, check: bool) -> None:
        with self.rec.span("graphs.generate"):
            self.graph = random_connected_graph(self.sizes.tree_n, seed=self.seed)
            self.tree = spanning_tree_of(self.graph, style="dfs", seed=self.seed)
        if check:
            self._check_against_reference()

    def _check_against_reference(self) -> None:
        graph = random_connected_graph(self.sizes.tree_check_n, seed=self.seed)
        tree = spanning_tree_of(graph, style="dfs", seed=self.seed)
        stats = []
        for engine in (Network, ReferenceNetwork):
            net = engine(graph)
            build = build_distributed_tree_scheme(net, tree, seed=self.seed)
            stats.append((net.metrics.fingerprint(), net.memory_high_water(),
                          build.rounds, build.messages, build.scheme))
        self.expect("Network build equals ReferenceNetwork build",
                    stats[0] == stats[1])

    def run_pass(self) -> Any:
        net = self.network(self.graph)
        return net, build_distributed_tree_scheme(net, self.tree, seed=self.seed)

    def judge(self, out: Any) -> Tuple[int, int]:
        net, build = out
        self.last_net = net
        ok = True
        if self.expected is None:
            try:
                verify_tree_scheme(build.scheme, self.tree,
                                   sample_pairs=self.sizes.verify_pairs,
                                   seed=self.seed)
            except ReproError as exc:
                ok = self.expect("verify_tree_scheme", False, str(exc))
            else:
                self.expect("verify_tree_scheme", True)
        ok &= self.repeats("simulated counts repeat", (
            net.metrics.fingerprint(), build.rounds, build.messages,
            build.max_memory_words))
        return 1, 0 if ok else 1

    def artifact_layers(self) -> Layers:
        return {"treerouting.trees": 1}


class GraphBuild(BuildWorkload):
    name = "graph_build"
    setup_reps = 5
    traced_passes = 1

    def setup(self, check: bool) -> None:
        with self.rec.span("graphs.generate"):
            self.graph = random_connected_graph(self.sizes.graph_n, seed=self.seed)
            self.hierarchy = balanced_hierarchy(self.graph, self.sizes.k, self.seed)
        if check:
            self._check_against_reference()

    def _check_against_reference(self) -> None:
        graph = random_connected_graph(self.sizes.graph_check_n, seed=self.seed)
        hierarchy = balanced_hierarchy(graph, self.sizes.k, self.seed)
        rows = [
            build_distributed_scheme(graph, self.sizes.k, epsilon=self.sizes.epsilon,
                                     seed=self.seed, hierarchy=hierarchy,
                                     net=engine(graph)).to_dict()
            for engine in (Network, ReferenceNetwork)
        ]
        self.expect("BuildReport equal on Network and ReferenceNetwork",
                    rows[0] == rows[1])

    def run_pass(self) -> Any:
        net = self.network(self.graph)
        return net, build_distributed_scheme(
            self.graph, self.sizes.k, epsilon=self.sizes.epsilon,
            seed=self.seed, hierarchy=self.hierarchy, net=net)

    def judge(self, out: Any) -> Tuple[int, int]:
        net, report = out
        self.last_net, self.last_report = net, report
        ok = True
        if self.expected is None:
            try:
                verify_graph_scheme(report.scheme, self.graph)
            except ReproError as exc:
                ok = self.expect("verify_graph_scheme", False, str(exc))
            else:
                self.expect("verify_graph_scheme", True)
                self.stretch = measure_stretch(
                    report.scheme, self.graph, self.sizes.stretch_pairs,
                    seed=self.seed)
                ok = self.expect(
                    "stretch within the report's bound",
                    self.stretch.max_stretch <= report.stretch_bound,
                    f"{self.stretch.max_stretch} > {report.stretch_bound}")
        ok &= self.repeats("simulated counts repeat", report.to_dict())
        return 1, 0 if ok else 1

    def artifact_layers(self) -> Layers:
        report = self.last_report
        return {
            "treerouting.trees": len(report.scheme.tree_schemes),
            "hopsets.size": report.hopset_size,
            "hopsets.beta": report.beta,
            "routing.table_words_max": report.scheme.max_table_words(),
            "routing.label_words_max": report.scheme.max_label_words(),
            "routing.stretch_max": self.stretch.max_stretch,
            "routing.stretch_mean": self.stretch.mean_stretch,
            "routing.stretch_pairs": self.stretch.pairs,
        }

    def layer_extras(self, run: TracedRun) -> Tuple[Layers, Derived]:
        layers, derived = super().layer_extras(run)
        # One more build with a telemetry collector attached: what the
        # program's own event bus costs when someone listens.
        with telemetry.collect():
            out, collected_s = timed(self.run_pass)
        self.judge(out)
        layers["telemetry.collected_build_s"] = collected_s
        derived.append(ratio_or_null(
            "telemetry.collector_overhead_share",
            lambda: collected_s / run.untraced_op_s - 1.0,
            "ratio", collected_s, run.region_s))
        return layers, derived


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------

def _same_answer(result: Any, scheme: Any, graph: Any) -> bool:
    """Engine result byte-identical (path, or error text) to the
    reference router's on the same pair."""
    try:
        ref = route_in_graph(scheme, graph, result.source, result.target)
    except RoutingFailure as exc:
        return not result.ok and result.error == str(exc)
    return result.ok and result.path == ref.path


class ServeWorkload(Workload):
    """In-process serving: one operation is a ``route_many`` pass over
    the whole stream on a fresh engine (cold cache every pass)."""

    pass_layer = "serve.route_many"
    traffic = ""
    #: the ``Sizes`` field holding the stream length
    stream = ""

    def release(self) -> None:
        self.graph = self.compiled = self.pairs = None

    def ship(self, scheme: Any, check: bool) -> Any:
        """How the built scheme reaches the serving host (``pool_hot``
        sends it through JSON text)."""
        return scheme

    def publish(self, check: bool) -> None:
        """What happens to the compiled tables before serving starts
        (``pool_hot`` lowers, seals and attaches them)."""

    def setup(self, check: bool) -> None:
        rec, sizes, seed = self.rec, self.sizes, self.seed
        with rec.span("graphs.generate"):
            self.graph = random_connected_graph(sizes.serve_n, seed=seed)
            self.hierarchy = balanced_hierarchy(self.graph, sizes.k, seed)
        with rec.span("tz.centralized_build"):
            scheme = self.build_scheme()
        scheme = self.ship(scheme, check)
        with rec.span("serve.compile"):
            self.compiled = compile_scheme(scheme, self.graph)
        self.publish(check)
        with rec.span("serve.workload_gen"):
            self.pairs = make_workload(
                self.traffic, self.graph, self.compiled.nodes,
                getattr(sizes, self.stream), seed, zipf_alpha=sizes.zipf_alpha)
        if check:
            self._check_against_router(scheme)
        # The uncompiled scheme must not be alive during timed passes (on
        # the deploy path the dict and the JSON text are already gone).
        del scheme
        gc.collect()

    def _check_against_router(self, scheme: Any) -> None:
        sample = random.Random(self.seed).sample(
            self.pairs, min(self.sizes.check_sample, len(self.pairs)))
        wrong = sum(1 for result in self.engine().route_many(sample)
                    if not _same_answer(result, scheme, self.graph))
        self.expect("sampled results byte-identical to route_in_graph",
                    wrong == 0, f"{wrong} of {len(sample)} differ")

    def build_scheme(self) -> Any:
        return build_centralized_scheme(self.graph, self.sizes.k, seed=self.seed,
                                        hierarchy=self.hierarchy)

    def engine(self, **attached: Any) -> ServeEngine:
        return ServeEngine(self.compiled, cache_size=self.sizes.cache_size, **attached)

    def run_pass(self) -> Any:
        engine = self.engine()
        return engine, engine.route_many(self.pairs)

    def judge(self, out: Any) -> Tuple[int, int]:
        engine, results = out
        failed = sum(1 for r in results if not r.ok)
        self.hops = sum(len(r.path) - 1 for r in results)
        self.engine_stats = engine.stats()
        self.repeats("engine counts repeat", (self.engine_stats, self.hops, failed))
        return len(results), failed

    # -- traced run ----------------------------------------------------------

    def layer_extras(self, run: TracedRun) -> Tuple[Layers, Derived]:
        stats, queries, op_s = self.engine_stats, len(self.pairs), run.traced_op_s
        lookups = stats["cache_hits"] + stats["cache_misses"]
        layers: Layers = {
            "serve.table_words": self.compiled.table_words(),
            "serve.queries": queries,
            "serve.cache_hits": stats["cache_hits"],
            "serve.cache_lookups": lookups,
            "serve.hops_total": self.hops,
        }
        derived = [
            {"name": "serve.cache_hit_rate", "unit": "ratio",
             "value": stats["cache_hits"] / max(1, lookups)},
            {"name": "serve.hops_mean", "unit": "hops", "value": self.hops / queries},
            ratio_or_null("serve.ns_per_query", lambda: 1e9 * op_s / queries,
                          "ns", run.region_s),
            ratio_or_null("serve.ns_per_hop", lambda: 1e9 * op_s / self.hops,
                          "ns", run.region_s),
        ]
        self._latency(layers)
        derived.append(self._harness_overhead(layers, run))
        derived.extend(self._instrument_overheads(layers, queries / op_s))
        derived.append(self._reference(layers))
        return layers, derived

    def _latency(self, layers: Layers) -> None:
        """One extra pass of single ``route_recorded`` calls, each timed
        on its own (the batched passes see only the total)."""
        route, clock = self.engine().route_recorded, time.perf_counter_ns
        lat = []
        gc.collect()
        for u, v in self.pairs[:self.sizes.latency_queries]:
            t0 = clock()
            route(u, v)
            lat.append(clock() - t0)
        lat.sort()
        layers["serve.latency_samples"] = len(lat)
        for label, p in (("p50", 50.0), ("p99", 99.0), ("p999", 99.9)):
            layers[f"serve.query_us_{label}"] = percentile(lat, p) / 1000.0

    def _harness_overhead(self, layers: Layers, run: TracedRun) -> Dict[str, Any]:
        """Pool workers serve through ``serve_pairs``, not ``route_many``:
        what the reporting harness adds on the same stream."""
        engine = self.engine()
        _, harness_s = timed(lambda: serve_pairs(
            engine, self.graph, self.pairs, seed=self.seed, slo=False))
        layers["serve.serve_pairs_s"] = harness_s
        return ratio_or_null("serve.harness_overhead_share",
                             lambda: 1.0 - run.traced_op_s / harness_s,
                             "ratio", run.region_s, harness_s)

    def _instrument_overheads(self, layers: Layers, rate: float) -> Derived:
        """Plain / live metrics / 1% tracer, three interleaved passes
        each, compared on CPU time (wall-clock steal on a shared 2-core
        box would otherwise swamp a few-percent effect).  Nine passes:
        each runs the stream prefix that just clears the region floor at
        the ``rate`` the full passes measured."""
        pairs = self.pairs[:int(1.25 * MIN_REGION_S * rate)]
        arms = {
            "serve.plain_cpu_s": lambda: {},
            "metrics.attached_cpu_s": lambda: {"metrics": ServeMetrics()},
            "tracing.attached_cpu_s": lambda: {
                "tracer": Tracer(rate=0.01, seed=self.seed)},
        }
        cpu: Dict[str, List[float]] = {arm: [] for arm in arms}
        for _ in range(3):
            for arm, attached in arms.items():
                engine = self.engine(**attached())
                gc.collect()
                c0 = time.process_time()
                engine.route_many(pairs)
                cpu[arm].append(time.process_time() - c0)
        for arm, samples in cpu.items():
            layers[arm] = sorted(samples)[1]
        plain = layers["serve.plain_cpu_s"]
        return [
            ratio_or_null(f"{arm.split('.')[0]}.overhead_share",
                          lambda arm=arm: layers[arm] / plain - 1.0,
                          "ratio", plain, layers[arm])
            for arm in ("metrics.attached_cpu_s", "tracing.attached_cpu_s")
        ]

    def _reference(self, layers: Layers) -> Dict[str, Any]:
        """The per-query reference router on a stream prefix: the
        baseline the engine's ``ops_per_s`` is read against."""
        scheme = self.build_scheme()
        sample = self.pairs[:self.sizes.reference_queries]

        def route_all() -> None:
            for u, v in sample:
                try:
                    route_in_graph(scheme, self.graph, u, v)
                except RoutingFailure:
                    pass

        _, reference_s = timed(route_all)
        layers["routing.reference_s"] = reference_s
        layers["routing.reference_queries"] = len(sample)
        return ratio_or_null("routing.reference_qps",
                             lambda: len(sample) / reference_s, "1/s", reference_s)


class ServeHot(ServeWorkload):
    name = "serve_hot"
    traffic = "zipf"
    stream = "hot_queries"


class ServeCold(ServeWorkload):
    name = "serve_cold"
    traffic = "uniform"
    stream = "cold_queries"


# ---------------------------------------------------------------------------
# Pooled serving
# ---------------------------------------------------------------------------

class PoolWorkload(ServeHot):
    """The hot stream through a fork ``ShardPool``: one operation is a
    parent-side ``pool.serve`` pass (partition, send, wait, decode,
    merge).  Worker caches persist from pass to pass, so set-up ends with
    one untimed warm pass: every timed pass is a warm one."""

    pass_layer = "shard.pool_serve"
    stream = "pool_queries"
    #: one set-up takes 3-11 s: there is no room to repeat it
    setup_reps = 1
    workers = 0

    def release(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.close()
        self.pool = None
        super().release()

    def setup(self, check: bool) -> None:
        super().setup(check)
        if check:
            self._check_merge_exact()
        with self.rec.span("shard.pool_start"):
            self.pool = self._pool(self.sizes.cache_size, collect_results=False)
        self.pool.serve(self.pairs, slo=False)
        cpus = os.cpu_count() or 1
        if check and cpus < self.workers:
            self.skipped.append({
                "name": "ops_per_s",
                "reason": (f"{self.workers} fork workers timeshare {cpus} CPU: "
                           "the value measures the scheduler, not the pool")})

    def _pool(self, cache_size: int, collect_results: bool) -> ShardPool:
        return ShardPool(self.compiled, self.graph, workers=self.workers,
                         start="fork", metrics=False, cache_size=cache_size,
                         seed=self.seed, collect_results=collect_results)

    def _check_merge_exact(self) -> None:
        """On an eviction-free cache the merged report and the
        stream-ordered results equal the single-process ones."""
        prefix = self.pairs[:self.sizes.pool_check_queries]
        roomy = 2 * len(prefix)
        single, single_results = serve_pairs(
            ServeEngine(self.compiled, cache_size=roomy), self.graph, prefix,
            seed=self.seed, slo=False)
        with self._pool(roomy, collect_results=True) as pool:
            merged, results = pool.serve(prefix, slo=False)
        self.expect("merged pool report equals the single-process report",
                    merged == single)
        self.expect("pool results equal single-process results in stream order",
                    results == single_results)

    def run_pass(self) -> Any:
        merged, _ = self.pool.serve(self.pairs, slo=False)
        return merged

    def judge(self, out: Any) -> Tuple[int, int]:
        self.merged = out
        self.repeats("merged counts repeat", (out.queries, out.failures))
        return out.queries, out.failures

    def layer_extras(self, run: TracedRun) -> Tuple[Layers, Derived]:
        op_s, merged = run.traced_op_s, self.merged
        reports = self.pool.shard_reports
        worker_s = max(r.serve_s for r in reports)
        _, partition_s = timed(lambda: partition_pairs(self.pairs, self.workers))
        _, merge_s = timed(lambda: ServeReport.merge(reports, exemplar_limit=None))
        layers: Layers = {
            "serve.table_words": self.compiled.table_words(),
            "serve.queries": merged.queries,
            "serve.cache_hits": merged.cache_hits,
            "serve.cache_lookups": merged.cache_hits + merged.cache_misses,
            "shard.workers": self.workers,
            "shard.partition_s": partition_s,
            "shard.worker_serve_s_max": worker_s,
            "shard.merge_s": merge_s,
            # send pickling, pipe transfer, reply decode
            "shard.ipc_other_s": op_s - partition_s - worker_s - merge_s,
        }
        derived = [
            ratio_or_null("shard.pool_overhead_share",
                          lambda: 1.0 - worker_s / op_s, "ratio", run.region_s),
            ratio_or_null("shard.partition_share",
                          lambda: partition_s / op_s, "ratio", run.region_s),
        ]
        return layers, derived


class PoolHot(PoolWorkload):
    """Two workers, and set-up walks the deploy path: the built scheme is
    serialized to JSON text and read back before it is compiled, lowered,
    sealed and attached."""

    name = "pool_hot"
    workers = 2

    def ship(self, scheme: Any, check: bool) -> Any:
        rec = self.rec
        if check:
            self.direct_payload = lower_compiled(
                compile_scheme(scheme, self.graph)).payload
        with rec.span("routing.to_dict"):
            blob = graph_scheme_to_dict(scheme)
        del scheme
        with rec.span("routing.json_codec", "dumps"):
            text = json.dumps(blob)
        del blob
        self.json_bytes = len(text)
        with rec.span("routing.json_codec", "loads"):
            blob = json.loads(text)
        del text
        with rec.span("routing.from_dict"):
            return graph_scheme_from_dict(blob)

    def publish(self, check: bool) -> None:
        rec = self.rec
        with rec.span("shard.lower"):
            lowered = lower_compiled(self.compiled)
        if check:
            self.expect("round-tripped payload byte-identical to direct compile",
                        lowered.payload == self.direct_payload)
            self.direct_payload = None
        del lowered
        with rec.span("shard.seal"):
            sealed = seal_to_buffers(self.compiled)
        try:
            self.image_bytes = sealed.manifest["nbytes"]
            with rec.span("shard.attach"):
                attached = from_buffers(sealed.manifest)
            attached.close()
        finally:
            sealed.close()
            sealed.unlink()

    def layer_extras(self, run: TracedRun) -> Tuple[Layers, Derived]:
        layers, derived = super().layer_extras(run)
        layers["routing.json_bytes"] = self.json_bytes
        layers["shard.image_bytes"] = self.image_bytes
        return layers, derived


class PoolHotW1(PoolWorkload):
    """One worker over directly compiled tables: everything the pool adds
    to ``serve_hot`` with no parallelism to hide it."""

    name = "pool_hot_w1"
    workers = 1


WORKLOADS = {cls.name: cls for cls in
             (TreeBuild, GraphBuild, ServeHot, ServeCold, PoolHot, PoolHotW1)}
