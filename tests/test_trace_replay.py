"""``replay_query`` against the recorder it replaced.

``tests/reference_recorder.py`` is the old trace recorder verbatim: its own
candidate scan and hop loops.  The production replay reuses the serving
engine's decision and walks and labels the walked path afterwards; here the
two must give equal ``to_dict()`` output -- hops, kinds, weights, forensic
lengths and failure text -- or both raise ``KeyError``, on every table
family the serving suite builds and under tight hop budgets, failing
queries included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import random_connected_graph, spanning_tree_of
from repro.serve import ServeEngine, compile_scheme
from repro.tracing import replay_query
from repro.tz import build_centralized_scheme, build_tree_scheme

from . import reference_recorder as ref

N = 40
#: Not a vertex: queries naming it raise ``KeyError`` on both sides.
STRANGER = 999


def _cut(graph, count=15):
    """``graph`` without ``count`` of its edges (every third, in order)."""
    cut = graph.copy()
    cut.remove_edges_from(list(graph.edges)[::3][:count])
    return cut


def _graph_family(k=2, *, strip=(), delete=(), cut=False):
    graph = random_connected_graph(N, seed=5)
    scheme = build_centralized_scheme(graph, k, seed=5)
    for v in strip:  # keeps its table, loses every tree
        scheme.tables[v].trees.clear()
    for v in delete:  # no table at all: KeyError when reached
        del scheme.tables[v]
    return compile_scheme(scheme, _cut(graph) if cut else graph)


def _tree_family(*, weighted=True, delete=()):
    graph = random_connected_graph(N, seed=5)
    scheme = build_tree_scheme(spanning_tree_of(graph, style="dfs", seed=5))
    for v in delete:
        del scheme.tables[v]
    if not weighted:
        return compile_scheme(scheme)
    # With tables deleted, also serve against a cut graph: a tree hop that
    # is no longer an edge is charged 1.0.
    return compile_scheme(scheme, _cut(graph) if delete else graph)


FAMILIES = {
    "graph-k2": _graph_family(2),
    "graph-k3": _graph_family(3),
    "graph-stripped": _graph_family(strip=(7, 23)),
    "graph-deleted": _graph_family(delete=(7, 23)),
    "graph-cut": _graph_family(cut=True),
    "tree-weighted": _tree_family(),
    "tree-unweighted": _tree_family(weighted=False),
    "tree-deleted": _tree_family(delete=(7, 23)),
}
BUDGETS = (None, 0, 1, 3)


def _outcome(replay, engine, u, v):
    try:
        return replay(engine, u, v, trace_id="t", via="tail").to_dict()
    except KeyError as exc:
        return ("KeyError", exc.args)


def _assert_same(engine, pairs):
    """Compare every pair; return the set of outcome kinds seen."""
    kinds = set()
    for u, v in pairs:
        got = _outcome(replay_query, engine, u, v)
        assert got == _outcome(ref.replay_query, engine, u, v), (u, v)
        kinds.add(got[0] if isinstance(got, tuple)
                  else "ok" if got["ok"] else "failed")
    return kinds


@pytest.mark.parametrize("max_hops", BUDGETS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_grid_equals_the_reference_recorder(family, max_hops):
    engine = ServeEngine(FAMILIES[family], max_hops=max_hops)
    vertices = sorted({*range(0, N, 2), 7, 23}) + [STRANGER]
    kinds = _assert_same(engine, [(u, v) for u in vertices for v in vertices])
    assert "KeyError" in kinds
    if max_hops is not None or family.endswith(("stripped", "cut")):
        assert "failed" in kinds, "the grid must include failing traces"


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)),
       max_hops=st.sampled_from(BUDGETS),
       pairs=st.lists(st.tuples(st.integers(0, N), st.integers(0, N)),
                      min_size=1, max_size=8))
def test_drawn_queries_equal_the_reference_recorder(family, max_hops, pairs):
    engine = ServeEngine(FAMILIES[family], max_hops=max_hops)
    _assert_same(engine, pairs)  # N itself is not a vertex
