"""Tests for the ShardPool: merged-equals-single differential proofs,
process lifecycle, leaked-segment guards, and cache collection.

Unit tests run the pool in ``start="thread"`` mode — same worker loop,
same pipe protocol, visible to pytest-cov (coverage does not follow
child processes).  The integration tests fork real workers.
"""

import gc
import glob
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InputError, ShardError
from repro.graphs import grid_graph, random_connected_graph
from repro.metrics.serve import ServeMetrics
from repro.serve import compile_scheme, run_serving
from repro.serve.workloads import make_workload
from repro.shard import (
    ShardPool,
    WorkerSpec,
    partition_pairs,
    run_sharded,
    seal_to_buffers,
    shard_of,
    worker_main,
)
from repro.shard import pool as pool_module
from repro.shard import worker as worker_module
from repro.shard.pool import _InlineConn
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


GOLDEN_WORKERS = (2, 3, 4, 7)

#: ``(source, target) -> shard_of(...)`` at each of ``GOLDEN_WORKERS``.
GOLDEN_SHARDS = {
    (0, 1): (0, 1, 2, 0),
    (1, 0): (0, 1, 2, 5),
    (7, 7): (1, 1, 3, 4),
    (1999, 3): (1, 1, 1, 4),
    (-5, 2 ** 40): (0, 1, 2, 3),
    ("a", "b"): (0, 2, 0, 2),
    ("node-17", "node-4"): (1, 2, 3, 6),
    ("", "\u00fc"): (1, 1, 3, 5),
    (2.5, -0.25): (0, 1, 0, 4),
    (1e300, 3.75): (0, 0, 2, 4),
    ((0, 1), (1, 0)): (1, 1, 1, 5),
    (("r", 2), ("c", (3, 4.5))): (0, 2, 0, 0),
    ((), (None,)): (1, 2, 1, 5),
    (3, "3"): (0, 2, 0, 5),
    (None, True): (1, 1, 3, 5),
}

_SCALAR_IDS = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(),
    st.none(),
)
NODE_IDS = st.one_of(_SCALAR_IDS, st.tuples(_SCALAR_IDS, _SCALAR_IDS))


def seeded_stream():
    """A fixed 2k-pair stream over int, str and tuple ids (imported by
    the PYTHONHASHSEED subprocesses, so it must not depend on a fixture)."""
    rng = random.Random(77)
    ids = ([i for i in range(40)] + [f"v{i}" for i in range(40)]
           + [(i % 5, f"t{i}") for i in range(40)])
    return [(rng.choice(ids), rng.choice(ids)) for _ in range(2000)]


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

    @pytest.mark.parametrize("pair", sorted(GOLDEN_SHARDS, key=repr),
                             ids=repr)
    def test_golden_shards(self, pair):
        """The plan is a wire contract (warm-cache files re-partition by
        it, workers on other hosts must agree): these literals may only
        change with a deliberate re-plan."""
        got = tuple(shard_of(*pair, workers) for workers in GOLDEN_WORKERS)
        assert got == GOLDEN_SHARDS[pair]

    def test_equal_ids_share_a_shard(self):
        """``1 == 1.0 == True`` is one table key and one LRU key, so it
        is one id to the plan, in any argument order of the stream."""
        for workers in GOLDEN_WORKERS:
            want = shard_of(1, (2, 0), workers)
            assert shard_of(1.0, (2.0, False), workers) == want
            assert shard_of(True, (2, 0.0), workers) == want
        mixed = [(1.0, 2), (1, 2), (True, 2.0), (1, 2)]
        slices, _ = partition_pairs(mixed, 4)
        assert sorted(map(len, slices)) == [0, 0, 0, 4]

    @pytest.mark.parametrize("hashseed", ["1", "2"])
    def test_partition_stable_across_hash_seeds(self, hashseed):
        """A plan leaning on ``hash()`` would move with PYTHONHASHSEED
        (str ids are salted); this one may not."""
        script = (
            "import json, sys\n"
            "from tests.test_shard_pool import seeded_stream\n"
            "from repro.shard import partition_pairs\n"
            "json.dump(partition_pairs(seeded_stream(), 3)[1], sys.stdout)\n")
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              cwd=root, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == partition_pairs(seeded_stream(), 3)[1]

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(NODE_IDS, NODE_IDS), max_size=40),
           workers=st.integers(min_value=1, max_value=9))
    def test_partition_agrees_with_shard_of(self, pairs, workers):
        slices, indices = partition_pairs(pairs, workers)
        assert len(slices) == len(indices) == workers
        rebuilt = [None] * len(pairs)
        for s, (part, positions) in enumerate(zip(slices, indices)):
            assert positions == sorted(positions)  # stream order kept
            assert len(part) == len(positions)
            for pair, position in zip(part, positions):
                assert shard_of(pair[0], pair[1], workers) == s
                rebuilt[position] = pair
        assert rebuilt == pairs

    @pytest.mark.parametrize("workers", [2, 3, 4, 7, 8])
    def test_balance_on_sequential_int_ids(self, workers):
        """Sequential ints are what every generated graph uses: no shard
        may sit more than 5% off the mean on a uniform stream."""
        rng = random.Random(2024)
        pairs = [(rng.randrange(2000), rng.randrange(2000))
                 for _ in range(20_000)]
        slices, _ = partition_pairs(pairs, workers)
        mean = len(pairs) / workers
        assert all(abs(len(part) - mean) <= 0.05 * mean for part in slices), \
            [len(part) for part in slices]

    def test_partition_rejects_nonpositive(self):
        with pytest.raises(InputError):
            partition_pairs([(1, 2)], 0)


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

    @pytest.mark.parametrize("workers", [2, 3])
    def test_tied_stretches_keep_the_same_exemplars(self, workers):
        """On an unweighted grid many queries tie on stretch: the kept
        exemplars are the first under one total order, whatever the
        split (they used to follow each shard's arrival order)."""
        graph = grid_graph(8, 8, weight_range=(1.0, 1.0), seed=0)
        scheme = build_centralized_scheme(graph, 3, seed=0)
        single, _ = run_serving(scheme, graph, workload="uniform",
                                queries=2000, seed=0, metrics=ServeMetrics())
        merged, _ = run_sharded(scheme, graph, workers=workers,
                                workload="uniform", queries=2000, seed=0,
                                start="thread")
        values = [x["value"] for x in single.exemplars]
        assert len(set(values)) < len(values), "the case needs ties"
        assert _exemplar_keys(merged) == _exemplar_keys(single)
        assert merged.exemplars == single.exemplars

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
        assert not {"seed", "shm"} & set(rows[0])
        # Round-trips like every other optional RunRecord section.
        from repro.telemetry.runrecord import RunRecord
        back = RunRecord.from_dict(record.to_dict())
        assert back.shards == rows


class TestPoolLifecycle:
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

    @pytest.mark.parametrize("start", ["thread", "fork"])
    def test_poisoned_slice_leaves_pool_usable(self, built, start):
        """A reported failure is not a dead worker: every reply of the
        poisoned request is drained, so the next one starts clean."""
        graph, _, compiled = built
        stream = make_workload("zipf", graph, compiled.nodes, 120, 5)
        pool = ShardPool(compiled, graph, workers=2, start=start)
        name = pool.sealed.name.lstrip("/")
        try:
            with pytest.raises(ShardError, match="Traceback"):
                pool.serve([("definitely-missing", "also-missing")])
            report, _ = pool.serve(stream, workload="zipf", seed=5)
            assert report.queries == len(stream)
            assert report.failures == 0
            assert pool.collect_cache_entries()
        finally:
            pool.close()
        assert not glob.glob(f"/dev/shm/*{name}*")

    def test_out_of_protocol_reply_breaks_pool(self, built):
        graph, _, compiled = built
        with ShardPool(compiled, graph, workers=2, start="thread") as pool:
            pool._conns[0].send(("cache",))  # answered with a "cache" reply
            with pytest.raises(ShardError, match="protocol error"):
                pool.serve([], workload="pairs", seed=0)
            with pytest.raises(ShardError, match="broken"):
                pool.serve([], workload="pairs", seed=0)

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


    def test_reused_pool_reports_each_pass_alone(self, built):
        """Workers keep their engines from pass to pass; each merged report
        counts its own pass."""
        graph, _, compiled = built
        pairs = make_workload("zipf", graph, compiled.nodes, 400, 3)
        lookups = sum(1 for u, v in pairs if u != v)
        with ShardPool(compiled, graph, workers=2, start="thread") as pool:
            reports = [pool.serve(pairs, workload="zipf", seed=3)[0]
                       for _ in range(2)]
        for report in reports:
            assert report.queries == len(pairs)
            assert report.cache_hits + report.cache_misses == lookups
        assert reports[1].cache_hit_rate == 1.0


class TestWorkerFreeze:
    """Process workers freeze their tables out of the cyclic collector;
    nothing that shares the caller's process may touch its collector."""

    @pytest.mark.parametrize("start", ["thread", "fork"])
    def test_pool_leaves_callers_collector_alone(self, built, start):
        graph, _, compiled = built
        pairs = make_workload("uniform", graph, compiled.nodes, 50, 1)
        assert gc.get_freeze_count() == 0
        with ShardPool(compiled, graph, workers=2, start=start) as pool:
            report, _ = pool.serve(pairs, workload="uniform", seed=1)
        assert report.queries == len(pairs)
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    @pytest.mark.parametrize("start,froze", [
        ("fork", True), ("spawn", True), ("thread", False)])
    def test_freeze_follows_start_mode(self, built, monkeypatch, start,
                                       froze):
        """``worker_main`` cannot tell a thread from a process, so the
        spec's start mode decides: driven here on a thread with the
        collector calls recorded instead of made."""
        graph, _, compiled = built
        calls = []

        class RecordingGc:
            collect = staticmethod(lambda: calls.append("collect"))
            freeze = staticmethod(lambda: calls.append("freeze"))

        monkeypatch.setattr(worker_module, "gc", RecordingGc)
        parent, child = _InlineConn.pipe()
        with seal_to_buffers(compiled) as sealed:
            spec = WorkerSpec(start=start, manifest=sealed.manifest)
            thread = threading.Thread(
                target=worker_main, args=(child, spec, graph))
            thread.start()
            parent.send(("cache",))
            assert parent.recv() == ("cache", [])  # past start-up
            parent.send(("stop",))
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert calls == (["collect", "freeze"] if froze else [])


class TestSpawnIntegration:
    def test_spawn_pool_matches_single_process(self, built, monkeypatch):
        """A spawned worker starts from a fresh interpreter: the manifest
        in its spec is all it has of the tables, and the merged report
        still equals the single-process one."""
        graph, scheme, _ = built
        sealed = []

        def seal(compiled):
            sealed.append(seal_to_buffers(compiled))
            return sealed[-1]

        monkeypatch.setattr(pool_module, "seal_to_buffers", seal)
        single, _ = run_serving(scheme, graph, workload="zipf",
                                queries=200, seed=29)
        merged, _ = run_sharded(scheme, graph, workers=2, workload="zipf",
                                queries=200, seed=29, start="spawn")
        assert merged == single
        assert merged.sketches["hops"] == single.sketches["hops"]
        name = sealed[0].name.lstrip("/")
        assert not glob.glob(f"/dev/shm/*{name}*")


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

    def test_worker_killed_between_send_and_reply(self, built):
        """A worker that dies holding an unanswered ``serve`` message: the
        call raises, the pool stays broken, and ``close`` leaves neither
        the segment nor a child behind."""
        graph, _, compiled = built
        pairs = make_workload("uniform", graph, compiled.nodes, 50, 0)
        pool = ShardPool(compiled, graph, workers=2, start="fork")
        name = pool.sealed.name.lstrip("/")
        victim = pool._procs[0]
        try:
            # Stopped, the worker cannot read the message `serve` sends
            # it (50 pairs fit the pipe buffer), so the kill lands after
            # the send and before any reply.
            os.kill(victim.pid, signal.SIGSTOP)
            killer = threading.Timer(
                0.3, os.kill, (victim.pid, signal.SIGKILL))
            killer.start()
            try:
                with pytest.raises(ShardError, match="died before replying"):
                    pool.serve(pairs, workload="uniform", seed=0)
            finally:
                killer.join(timeout=5.0)
            with pytest.raises(ShardError, match="broken"):
                pool.serve(pairs, workload="uniform", seed=0)
        finally:
            pool.close()
        assert not glob.glob(f"/dev/shm/*{name}*")
        assert not any(proc.is_alive() for proc in pool._procs)
        assert victim.exitcode == -signal.SIGKILL
        assert not set(pool._procs) & set(multiprocessing.active_children())
