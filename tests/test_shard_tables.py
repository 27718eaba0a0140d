"""Tests for repro.shard.tables: seal/attach round-trips, the golden image
layout, shared-memory lifecycle, and truncated or missing images."""

import glob
import hashlib
from multiprocessing import shared_memory

import pytest

from repro.errors import InputError, ShardError
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.serve import ServeEngine, compile_scheme
from repro.serve.workloads import make_workload
from repro.shard.tables import (
    NO_ID,
    TABLE_FORMAT,
    AttachedTables,
    from_buffers,
    lower_compiled,
    seal_to_buffers,
)
from repro.tz import build_centralized_scheme, build_tree_scheme


@pytest.fixture(scope="module")
def built():
    graph = random_connected_graph(60, seed=21)
    scheme = build_centralized_scheme(graph, 3, seed=21)
    return graph, compile_scheme(scheme, graph)


@pytest.fixture(scope="module")
def built_tree():
    graph = random_connected_graph(40, seed=5)
    tree = spanning_tree_of(graph, style="dfs", seed=7)
    scheme = build_tree_scheme(tree, root_distance=lambda v: 1.0)
    return graph, compile_scheme(scheme, graph)


def _routes(compiled, graph, pairs, mode="first"):
    engine = ServeEngine(compiled, mode=mode, cache_size=0)
    return [engine.route_recorded(u, v) for u, v in pairs]


def _same_routes(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.source, x.target) == (y.source, y.target)
        assert x.ok == y.ok
        assert x.path == y.path
        assert x.length == y.length
        assert x.error == y.error


class TestRoundTrip:
    def test_graph_scheme_inline(self, built):
        graph, compiled = built
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        pairs = make_workload("uniform", graph, compiled.nodes, 400, 9)
        _same_routes(_routes(compiled, graph, pairs),
                     _routes(attached.compiled, graph, pairs))
        attached.close()

    def test_graph_scheme_zipf_best_mode(self, built):
        graph, compiled = built
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        pairs = make_workload("zipf", graph, compiled.nodes, 400, 17)
        _same_routes(_routes(compiled, graph, pairs, mode="best"),
                     _routes(attached.compiled, graph, pairs, mode="best"))
        attached.close()

    def test_tree_scheme(self, built_tree):
        graph, compiled = built_tree
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        nodes = list(compiled.nodes)
        pairs = [(nodes[i % len(nodes)], nodes[(i * 7 + 3) % len(nodes)])
                 for i in range(200)]
        _same_routes(_routes(compiled, graph, pairs),
                     _routes(attached.compiled, graph, pairs))
        attached.close()

    def test_rebuilt_structural_equality(self, built):
        _, compiled = built
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        re = attached.compiled
        assert re.k == compiled.k and re.n == compiled.n
        assert re.nodes == compiled.nodes
        assert re.tree_ids == compiled.tree_ids
        assert re.table_ids == compiled.table_ids
        assert re.default_budget == compiled.default_budget
        assert re.bunch_levels == compiled.bunch_levels
        assert set(re.provenance) == set(compiled.provenance)
        # Decision tables: same candidates in the same order (the packed
        # trees inside are compared by identity fields — their hot arrays
        # are zero-copy memoryviews on the rebuilt side, list-equal in
        # content but not list-typed).
        assert set(re.decisions) == set(compiled.decisions)
        for target, cands in compiled.decisions.items():
            got = re.decisions[target]
            assert len(got) == len(cands)
            for (loc_a, (tree_a, lab_a), w_a, e_a, d_a), \
                    (loc_b, (tree_b, lab_b), w_b, e_b, d_b) in \
                    zip(cands, got):
                assert loc_a == loc_b
                assert tree_a.tree_id == tree_b.tree_id
                assert list(tree_a.enter) == list(tree_b.enter)
                assert lab_a.enter == lab_b.enter
                assert lab_a.light == lab_b.light
                assert list(w_a) == list(w_b)
                assert e_a == e_b and d_a == d_b
        attached.close()

    def test_missing_target_keyerror_parity(self, built):
        graph, compiled = built
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        engine = ServeEngine(attached.compiled, cache_size=0)
        with pytest.raises(KeyError):
            engine.route("no-such-node", next(iter(compiled.nodes)))
        attached.close()

    def test_manifest_format_and_offsets(self, built):
        _, compiled = built
        lowered = lower_compiled(compiled)
        m = lowered.manifest
        assert m["format"] == TABLE_FORMAT
        assert m["kind"] == "graph"
        assert m["nbytes"] == len(lowered.payload)
        for name, (offset, count, code) in m["arrays"].items():
            assert offset % 8 == 0
            assert code in ("q", "d")
            assert offset + 8 * count <= m["nbytes"]


class TestSharedMemory:
    def test_seal_attach_by_name(self, built):
        graph, compiled = built
        pairs = make_workload("uniform", graph, compiled.nodes, 200, 4)
        with seal_to_buffers(compiled) as sealed:
            # Attach from the manifest alone, like a worker does.
            attached = from_buffers(sealed.manifest)
            _same_routes(_routes(compiled, graph, pairs),
                         _routes(attached.compiled, graph, pairs))
            attached.close()

    def test_double_close_and_double_unlink_safe(self, built):
        _, compiled = built
        sealed = seal_to_buffers(compiled)
        attached = from_buffers(sealed.manifest)
        attached.close()
        attached.close()
        sealed.close()
        sealed.close()
        sealed.unlink()
        sealed.unlink()

    def test_no_leaked_segment(self, built):
        _, compiled = built
        sealed = seal_to_buffers(compiled)
        name = sealed.name.lstrip("/")
        assert glob.glob(f"/dev/shm/*{name}*")
        sealed.close()
        sealed.unlink()
        assert not glob.glob(f"/dev/shm/*{name}*")

    def test_attach_without_name_or_buffer_raises(self, built):
        _, compiled = built
        lowered = lower_compiled(compiled)
        manifest = dict(lowered.manifest)
        manifest.pop("shm", None)
        with pytest.raises(InputError):
            from_buffers(manifest)


#: The seed-21 n=60 image, recorded at the commit where the numpy and the
#: stdlib ``array`` writer still both existed and agreed byte for byte.
GOLDEN_PAYLOAD_SHA256 = (
    "e21dc2b548a53c363592e4b53bf3b15ead243748dafcd12b095461da671df176")
GOLDEN_ARRAYS = {
    "tree_sizes": [0, 60, "q"],
    "tree_ids_u": [480, 60, "q"],
    "table_ids_u": [960, 60, "q"],
    "t_ids_u": [1440, 607, "q"],
    "t_enter": [6296, 607, "q"],
    "t_exit": [11152, 607, "q"],
    "t_parent": [16008, 607, "q"],
    "t_parent_u": [20864, 607, "q"],
    "t_heavy": [25720, 607, "q"],
    "t_heavy_u": [30576, 607, "q"],
    "t_parent_w": [35432, 607, "d"],
    "t_heavy_w": [40288, 607, "d"],
    "t_rootdist": [45144, 607, "d"],
    "label_targets_u": [50000, 60, "q"],
    "entry_offsets": [50480, 61, "q"],
    "entry_level": [50968, 180, "q"],
    "entry_tree": [52408, 180, "q"],
    "entry_enter": [53848, 180, "q"],
    "entry_words": [55288, 180, "q"],
    "entry_dist": [56728, 180, "d"],
    "light_offsets": [58168, 181, "q"],
    "light_li": [59616, 110, "q"],
    "light_next_li": [60496, 110, "q"],
    "light_next_u": [61376, 110, "q"],
    "light_w": [62256, 110, "d"],
}


class TestTruncatedImage:
    """A buffer or segment shorter than its manifest is refused with a
    typed error before any view of it exists."""

    def test_short_payload_raises(self, built):
        """Unchecked, half an image attaches with short columns and one
        word less fails deep in the rebuild with an IndexError."""
        _, compiled = built
        lowered = lower_compiled(compiled)
        for keep in (len(lowered.payload) // 2, len(lowered.payload) - 8):
            with pytest.raises(ShardError, match="truncated"):
                from_buffers(lowered.manifest, lowered.payload[:keep])

    def test_array_past_the_end_is_named(self, built):
        """One word short with a manifest that under-reports ``nbytes``:
        the per-array check names the column that does not fit."""
        _, compiled = built
        lowered = lower_compiled(compiled)
        manifest = dict(lowered.manifest, nbytes=lowered.manifest["nbytes"] - 8)
        with pytest.raises(ShardError, match="'light_w'"):
            AttachedTables(manifest, lowered.payload[:-8])

    def test_missing_segment_raises(self, built):
        _, compiled = built
        sealed = seal_to_buffers(compiled)
        manifest = dict(sealed.manifest)
        sealed.close()
        sealed.unlink()
        with pytest.raises(ShardError, match=manifest["shm"].lstrip("/")):
            from_buffers(manifest)

    def test_short_segment_raises_and_unmaps(self, built, monkeypatch):
        _, compiled = built
        lowered = lower_compiled(compiled)
        closed = []
        real_close = shared_memory.SharedMemory.close

        def spy_close(self):
            closed.append(self.name)
            real_close(self)

        monkeypatch.setattr(shared_memory.SharedMemory, "close", spy_close)
        segment = shared_memory.SharedMemory(
            create=True, size=len(lowered.payload) // 2)
        try:
            manifest = dict(lowered.manifest, shm=segment.name)
            with pytest.raises(ShardError, match="truncated") as excinfo:
                from_buffers(manifest)
            # The traceback in ``excinfo`` keeps the attacher's mapping
            # object alive, so this close is the explicit one, not __del__.
            assert closed == [segment.name]
        finally:
            segment.close()
            segment.unlink()


class TestImageLayout:
    def test_golden_payload_and_arrays(self, built):
        """The one writer left produces the image both writers produced."""
        _, compiled = built
        lowered = lower_compiled(compiled)
        assert lowered.manifest["arrays"] == GOLDEN_ARRAYS
        assert (hashlib.sha256(lowered.payload).hexdigest()
                == GOLDEN_PAYLOAD_SHA256)

    def test_weird_node_ids_roundtrip(self):
        """String/tuple/bool/float ids survive interning distinctly."""
        import networkx as nx

        graph = nx.Graph()
        nodes = ["a", ("b", 1), 1, 1.5, True, "1"]
        for i in range(len(nodes) - 1):
            graph.add_edge(nodes[i], nodes[i + 1], weight=1.0 + i)
        scheme = build_centralized_scheme(graph, 2, seed=3)
        compiled = compile_scheme(scheme, graph)
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        assert attached.compiled.nodes == compiled.nodes
        pairs = [(u, v) for u in nodes for v in nodes]
        _same_routes(_routes(compiled, graph, pairs),
                     _routes(attached.compiled, graph, pairs))
        attached.close()

    def test_golden_fingerprints(self, built, built_tree):
        """Image *and* manifest (universe order, scalars) are what the
        per-occurrence ``_Universe`` interner produced before
        ``IdTable`` replaced it."""
        assert lower_compiled(built[1]).fingerprint() == (
            "c2d457a3eebe91760862bfbf00bf11f6"
            "b826cb96ca3578d580a6199bcad9212a")
        assert lower_compiled(built_tree[1]).fingerprint() == (
            "240b7d3008536cc4c7c906ef5fcb1431"
            "4bc1ac53eed8d7bef1a0d5f3a4b136c8")

    def test_mixed_type_ids_through_the_deploy_path(self):
        """Ids that look alike (``1`` / ``"1"`` / ``(1,)`` / ``("1",)``)
        or are neither int nor str take one universe slot each, the
        JSON round trip lowers to the direct compile's image, and the
        image is the one the previous interner produced."""
        import io

        import networkx as nx

        from repro.routing.serialization import (
            encode_id,
            load_scheme,
            save_scheme,
        )

        nodes = [1, "1", (1,), 2.0, ("1",), False, "a", (1, (2.0, "x"))]
        graph = nx.Graph()
        for i in range(len(nodes) - 1):
            graph.add_edge(nodes[i], nodes[i + 1], weight=1.0 + i)
        graph.add_edge(nodes[0], nodes[4], weight=2.5)
        scheme = build_centralized_scheme(graph, 2, seed=3)
        compiled = compile_scheme(scheme, graph)
        direct = lower_compiled(compiled)

        universe = direct.manifest["universe"]
        assert len(universe) == len(nodes)
        assert all(universe.count(encode_id(v)) == 1 for v in nodes)
        assert direct.fingerprint() == (
            "20f3f720e93be6f5329fa7458a7c6a3d"
            "6d88b92af239617883c0914c48e45d1b")

        saved = io.StringIO()
        save_scheme(scheme, saved)
        saved.seek(0)
        shipped = lower_compiled(compile_scheme(load_scheme(saved), graph))
        assert shipped.manifest == direct.manifest
        assert shipped.payload == direct.payload

        with from_buffers(shipped.manifest, shipped.payload) as attached:
            assert attached.compiled.nodes == compiled.nodes
            assert ([type(v) for v in attached.compiled.nodes]
                    == [type(v) for v in compiled.nodes])
            pairs = [(u, v) for u in nodes for v in nodes]
            _same_routes(_routes(compiled, graph, pairs),
                         _routes(attached.compiled, graph, pairs))

    def test_no_id_sentinel_is_negative(self):
        assert NO_ID < 0
