"""Structural validation of routing schemes.

A released routing stack needs a way to certify artifacts before deploying
them (e.g. after deserialization, or after a third party's preprocessing).
``verify_tree_scheme`` checks every structural property the forwarding rule
relies on, and optionally certifies *functional* correctness by routing a
pair sample.  ``verify_graph_scheme`` does the same for the general-graph
artifacts.

All checks raise :class:`~repro.errors.InvariantViolation` with a precise
message; returning normally means the scheme passed.
"""

from __future__ import annotations

import random
from typing import Hashable, Mapping, Optional

import networkx as nx

from ..errors import InvariantViolation
from ..graphs.trees import tree_distance
from .artifacts import GraphRoutingScheme, TreeRoutingScheme
from .router import route_in_graph, route_in_tree

NodeId = Hashable


def verify_tree_scheme(
    scheme: TreeRoutingScheme,
    tree_parent: Optional[Mapping[NodeId, Optional[NodeId]]] = None,
    *,
    weight_of=None,
    sample_pairs: int = 0,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> None:
    """Certify a tree scheme's structure (and optionally its routing).

    Structure checks (always): DFS entries form a permutation of 1..n;
    intervals nest along parent pointers; widths are consistent (a parent's
    interval covers its children's); heavy children are children; labels'
    entry times match tables; light edges connect parent to child and are
    never the heavy child.  When ``tree_parent`` is given, parents must
    match it exactly.  With ``sample_pairs > 0``, routes that many random
    pairs and (given ``weight_of``) compares lengths to tree distances;
    pass ``rng`` to draw the sample from a caller-owned
    :class:`random.Random` stream (``seed`` is then ignored), the same
    injection pattern as :func:`repro.routing.router.sample_pairs`.
    """
    n = len(scheme.tables)
    if set(scheme.labels) != set(scheme.tables):
        raise InvariantViolation("tables and labels cover different vertex sets")

    enters = sorted(t.enter for t in scheme.tables.values())
    if enters != list(range(1, n + 1)):
        raise InvariantViolation("DFS entry times are not a permutation of 1..n")

    by_vertex = scheme.tables
    roots = [v for v, t in by_vertex.items() if t.parent is None]
    if roots != [scheme.root]:
        raise InvariantViolation(
            f"expected the unique parentless vertex to be {scheme.root!r}, "
            f"found {roots!r}"
        )
    root_table = by_vertex[scheme.root]
    if (root_table.enter, root_table.exit_) != (1, n):
        raise InvariantViolation("root interval must be (1, n)")

    children = {v: [] for v in by_vertex}
    for v, t in by_vertex.items():
        if t.exit_ < t.enter:
            raise InvariantViolation(f"empty interval at {v!r}")
        if t.parent is not None:
            p = by_vertex.get(t.parent)
            if p is None:
                raise InvariantViolation(f"parent {t.parent!r} of {v!r} has no table")
            if not (p.enter < t.enter and t.exit_ <= p.exit_):
                raise InvariantViolation(f"interval of {v!r} not nested in parent's")
            children[t.parent].append(v)
        if tree_parent is not None and t.parent != tree_parent[v]:
            raise InvariantViolation(f"parent mismatch at {v!r}")

    for v, t in by_vertex.items():
        if t.heavy is not None and t.heavy not in children[v]:
            raise InvariantViolation(f"heavy child of {v!r} is not a child")
        interval_sum = sum(
            by_vertex[c].exit_ - by_vertex[c].enter + 1 for c in children[v]
        )
        if t.exit_ - t.enter != interval_sum:
            raise InvariantViolation(f"children intervals of {v!r} do not tile")

    for v, label in scheme.labels.items():
        if label.enter != by_vertex[v].enter:
            raise InvariantViolation(f"label entry time of {v!r} disagrees")
        for (a, b) in label.light_edges:
            if by_vertex.get(b) is None or by_vertex[b].parent != a:
                raise InvariantViolation(
                    f"light edge ({a!r}, {b!r}) in label of {v!r} is not a "
                    "parent-child edge"
                )
            if by_vertex[a].heavy == b:
                raise InvariantViolation(
                    f"light edge ({a!r}, {b!r}) is the heavy child edge"
                )

    if sample_pairs > 0:
        rng = rng if rng is not None else random.Random(seed)
        nodes = sorted(by_vertex, key=repr)
        parent_map = {v: t.parent for v, t in by_vertex.items()}
        for _ in range(sample_pairs):
            u, v = rng.sample(nodes, 2)
            result = route_in_tree(scheme, u, v, weight_of=weight_of)
            if result.path[-1] != v:
                raise InvariantViolation(f"route {u!r}->{v!r} ended elsewhere")
            if weight_of is not None:
                expected = tree_distance(parent_map, weight_of, u, v)
                if abs(result.length - expected) > 1e-9:
                    raise InvariantViolation(
                        f"route {u!r}->{v!r} length {result.length} != tree "
                        f"distance {expected}"
                    )


def verify_graph_scheme(
    scheme: GraphRoutingScheme,
    graph: nx.Graph,
    *,
    sample_pairs: int = 0,
    stretch_bound: Optional[float] = None,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> None:
    """Certify a general-graph scheme.

    Structure: every label entry references an existing tree scheme, the
    entry's tree label matches that tree scheme's label for the vertex, and
    the vertex's table holds a tree table for its own level-0 tree.  Every
    per-tree scheme is structurally verified.  With ``sample_pairs > 0``,
    routes random pairs, checks delivery over real edges, and (with
    ``stretch_bound``) checks realized stretch.  ``rng`` injects a
    caller-owned pair-sampling stream, as in ``verify_tree_scheme``.
    """
    for tree_id, tree_scheme in scheme.tree_schemes.items():
        verify_tree_scheme(tree_scheme)
        for v, table in tree_scheme.tables.items():
            if scheme.tables[v].trees.get(tree_id) != table:
                raise InvariantViolation(
                    f"vertex {v!r} table for tree {tree_id!r} out of sync"
                )

    for v, label in scheme.labels.items():
        if len(label.entries) != scheme.k:
            raise InvariantViolation(f"label of {v!r} has {len(label.entries)} "
                                     f"entries, expected k={scheme.k}")
        for entry in label.entries:
            if entry is None:
                continue
            tree_id, dist, tree_label = entry
            ts = scheme.tree_schemes.get(tree_id)
            if ts is None:
                raise InvariantViolation(
                    f"label of {v!r} references unknown tree {tree_id!r}"
                )
            if ts.labels.get(v) != tree_label:
                raise InvariantViolation(
                    f"label of {v!r} for tree {tree_id!r} is stale"
                )
            if dist < 0:
                raise InvariantViolation("negative advertised distance")
        if all(e is None for e in label.entries):
            raise InvariantViolation(f"label of {v!r} has no usable entry")

    if sample_pairs > 0:
        from ..graphs.paths import Adjacency, dijkstra

        rng = rng if rng is not None else random.Random(seed)
        nodes = sorted(scheme.labels, key=repr)
        adj = Adjacency.of(graph)
        for _ in range(sample_pairs):
            u, v = rng.sample(nodes, 2)
            result = route_in_graph(scheme, graph, u, v)
            if result.path[-1] != v:
                raise InvariantViolation(f"route {u!r}->{v!r} ended elsewhere")
            if stretch_bound is not None:
                exact = dijkstra(adj, [u])[0][v]
                if result.length > stretch_bound * exact + 1e-9:
                    raise InvariantViolation(
                        f"stretch of {u!r}->{v!r} exceeds {stretch_bound}"
                    )
