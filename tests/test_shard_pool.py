"""Tests for the ShardPool: merged-equals-single differential proofs,
process lifecycle, leaked-segment guards, and cache collection.

Unit tests run the pool in ``start="thread"`` mode — same worker loop,
same pipe protocol, visible to pytest-cov (coverage does not follow
child processes).  The integration tests fork real workers.
"""

import glob
import time

import pytest

from repro.errors import InputError, ShardError
from repro.graphs import random_connected_graph
from repro.metrics.serve import ServeMetrics
from repro.serve import ServeEngine, compile_scheme, run_serving
from repro.serve.workloads import make_workload
from repro.shard import (
    ShardPool,
    run_sharded,
    shard_of,
    split_seed,
)
from repro.telemetry import record_run
from repro.tz import build_centralized_scheme


@pytest.fixture(scope="module")
def built():
    graph = random_connected_graph(60, seed=13)
    scheme = build_centralized_scheme(graph, 3, seed=13)
    return graph, scheme, compile_scheme(scheme, graph)


def _exemplar_keys(report):
    return sorted((round(x["value"], 9), x.get("source"), x.get("target"))
                  for x in report.exemplars)


class TestPlan:
    def test_shard_of_stable_and_in_range(self):
        for workers in (1, 2, 4, 7):
            for i in range(50):
                s = shard_of(i, i * 3 + 1, workers)
                assert 0 <= s < workers
                assert s == shard_of(i, i * 3 + 1, workers)

    def test_shard_of_rejects_nonpositive(self):
        with pytest.raises(InputError):
            shard_of(1, 2, 0)

    def test_split_seed_distinct(self):
        seeds = {split_seed(42, s, 8) for s in range(8)}
        assert len(seeds) == 8
        with pytest.raises(InputError):
            split_seed(42, 8, 8)


class TestMergedEqualsSingle:
    @pytest.mark.parametrize("workload", ["zipf", "gravity"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_thread_pool_matches_single_process(self, built, workload,
                                                workers):
        graph, scheme, _ = built
        single, results1 = run_serving(
            scheme, graph, workload=workload, queries=500, seed=23,
            metrics=ServeMetrics())
        merged, results2 = run_sharded(
            scheme, graph, workers=workers, workload=workload,
            queries=500, seed=23, start="thread", collect_results=True)
        assert merged == single
        assert merged.shards == workers
        assert merged.sketches["hops"] == single.sketches["hops"]
        assert merged.sketches["stretch"] == single.sketches["stretch"]
        assert _exemplar_keys(merged) == _exemplar_keys(single)
        # Per-query results reassemble byte-identically in stream order.
        assert len(results2) == len(results1)
        for a, b in zip(results1, results2):
            assert (a.source, a.target, a.path, a.length, a.ok,
                    a.error) == \
                   (b.source, b.target, b.path, b.length, b.ok, b.error)

    def test_no_shm_fork_inherit_path(self, built):
        graph, scheme, _ = built
        single, _ = run_serving(scheme, graph, workload="zipf",
                                queries=300, seed=5)
        merged, _ = run_sharded(scheme, graph, workers=2, workload="zipf",
                                queries=300, seed=5, start="thread",
                                shm=False)
        assert merged == single

    def test_recorded_shards_section(self, built):
        graph, scheme, _ = built
        report, record = record_run(lambda: run_sharded(
            scheme, graph, workers=2, workload="zipf", queries=300,
            seed=5, start="thread")[0])
        assert record.kind == "serve"
        rows = record.to_dict()["shards"]
        assert len(rows) == 2
        assert sum(r["queries"] for r in rows) == report.queries
        assert rows[0]["image_nbytes"] > 0
        assert [r["seed"] for r in rows] == \
               [split_seed(5, s, 2) for s in range(2)]
        assert all(r["shm"] for r in rows)
        # Round-trips like every other optional RunRecord section.
        from repro.telemetry.runrecord import RunRecord
        back = RunRecord.from_dict(record.to_dict())
        assert back.shards == rows


class TestPoolLifecycle:
    def test_spawn_without_shm_rejected(self, built):
        graph, _, compiled = built
        with pytest.raises(InputError):
            ShardPool(compiled, graph, workers=2, start="spawn", shm=False)

    def test_bad_workers_rejected(self, built):
        graph, _, compiled = built
        with pytest.raises(InputError):
            ShardPool(compiled, graph, workers=0)
        with pytest.raises(InputError):
            ShardPool(compiled, graph, workers=2, start="greenlet")

    def test_close_idempotent_and_unlinks(self, built):
        graph, _, compiled = built
        pool = ShardPool(compiled, graph, workers=2, start="thread")
        name = pool.sealed.name.lstrip("/")
        assert glob.glob(f"/dev/shm/*{name}*")
        pool.close()
        pool.close()
        assert not glob.glob(f"/dev/shm/*{name}*")
        with pytest.raises(ShardError):
            pool.serve([], workload="pairs", seed=0)

    def test_serve_after_worker_error_reports_traceback(self, built):
        graph, _, compiled = built
        with ShardPool(compiled, graph, workers=2, start="thread") as pool:
            # A query against an unknown node raises inside serve_pairs;
            # the worker wraps it as an ("error", traceback) reply.
            with pytest.raises(ShardError) as err:
                pool.serve([("definitely-missing", "also-missing")],
                           workload="pairs", seed=0)
            assert "Traceback" in str(err.value)

    def test_cache_preload_and_collection(self, built):
        graph, _, compiled = built
        pairs = make_workload("zipf", graph, compiled.nodes, 400, 3)
        with ShardPool(compiled, graph, workers=2, start="thread") as pool:
            cold, _ = pool.serve(pairs, workload="zipf", seed=3)
            entries = pool.collect_cache_entries()
        assert entries
        assert cold.cache_hits < len(pairs)
        # Every collected entry rides its plan shard.
        with ShardPool(compiled, graph, workers=2, start="thread",
                       cache_entries=entries) as pool:
            warm, _ = pool.serve(pairs, workload="zipf", seed=3)
        assert warm.cache_hits == warm.queries
        assert warm.cache_hit_rate == 1.0
        # A different worker count re-partitions the same entries.
        with ShardPool(compiled, graph, workers=3, start="thread",
                       cache_entries=entries) as pool:
            warm3, _ = pool.serve(pairs, workload="zipf", seed=3)
        assert warm3.cache_hits == warm3.queries


class TestForkIntegration:
    def test_fork_pool_matches_single_process(self, built):
        graph, scheme, _ = built
        single, _ = run_serving(scheme, graph, workload="zipf",
                                queries=400, seed=19)
        merged, _ = run_sharded(scheme, graph, workers=2, workload="zipf",
                                queries=400, seed=19, start="fork")
        assert merged == single
        assert merged.sketches["hops"] == single.sketches["hops"]

    def test_crashed_worker_leaves_no_segment(self, built):
        graph, _, compiled = built
        pairs = make_workload("uniform", graph, compiled.nodes, 50, 0)
        pool = ShardPool(compiled, graph, workers=2, start="fork")
        name = pool.sealed.name.lstrip("/")
        try:
            # Hard-kill one worker (os._exit skips its finally blocks).
            pool._conns[0].send(("crash",))
            deadline = time.time() + 10.0
            while pool._procs[0].is_alive() and time.time() < deadline:
                time.sleep(0.05)
            assert not pool._procs[0].is_alive()
            with pytest.raises(ShardError):
                pool.serve(pairs, workload="uniform", seed=0)
        finally:
            pool.close()
        assert not glob.glob(f"/dev/shm/*{name}*")
