"""Tests for the scheme certification utilities."""

import dataclasses
import random

import pytest

from repro.congest import Network
from repro.core import build_distributed_scheme
from repro.errors import InvariantViolation
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.routing import TreeLabel, TreeRoutingScheme
from repro.routing.validation import verify_graph_scheme, verify_tree_scheme
from repro.treerouting import build_distributed_tree_scheme
from repro.tz import build_centralized_scheme, build_tree_scheme


def _replaced(scheme, tables=None, labels=None):
    """``scheme`` with its table and/or label map swapped out."""
    return TreeRoutingScheme.from_maps(
        scheme.tree_id, scheme.root,
        scheme.tables if tables is None else tables,
        scheme.labels if labels is None else labels)


@pytest.fixture(scope="module")
def tree_case():
    graph = random_connected_graph(90, seed=221)
    tree = spanning_tree_of(graph, style="dfs", seed=221)
    return graph, tree, build_tree_scheme(tree)


class TestVerifyTreeScheme:
    def test_valid_scheme_passes(self, tree_case):
        graph, tree, scheme = tree_case
        verify_tree_scheme(
            scheme, tree,
            weight_of=lambda u, v: graph[u][v]["weight"],
            sample_pairs=20,
        )

    def test_distributed_scheme_passes(self, tree_case):
        graph, tree, _ = tree_case
        build = build_distributed_tree_scheme(Network(graph), tree, seed=1)
        verify_tree_scheme(build.scheme, tree, sample_pairs=10)

    def test_injected_rng_draws_the_pair_sample(self, tree_case):
        graph, tree, scheme = tree_case
        verify_tree_scheme(
            scheme, tree,
            weight_of=lambda u, v: graph[u][v]["weight"],
            sample_pairs=10, rng=random.Random(3),
        )

    def test_detects_broken_enter_permutation(self, tree_case):
        _, tree, scheme = tree_case
        victim = sorted(scheme.tables)[5]
        old = scheme.tables[victim]
        broken = dict(scheme.tables)
        broken[victim] = dataclasses.replace(old, enter=10 ** 6, exit_=10 ** 6)
        with pytest.raises(InvariantViolation, match="permutation"):
            verify_tree_scheme(_replaced(scheme, tables=broken))

    def test_detects_wrong_parent(self, tree_case):
        _, tree, scheme = tree_case
        leaves = [v for v, t in scheme.tables.items()
                  if t.heavy is None and t.parent is not None]
        victim = sorted(leaves, key=repr)[0]
        wrong = dict(tree)
        wrong[victim] = scheme.root if tree[victim] != scheme.root else victim
        with pytest.raises(InvariantViolation):
            verify_tree_scheme(scheme, wrong)

    def test_detects_stale_label(self, tree_case):
        _, tree, scheme = tree_case
        victim = sorted(scheme.labels)[3]
        broken_labels = dict(scheme.labels)
        broken_labels[victim] = TreeLabel(enter=scheme.labels[victim].enter + 1)
        with pytest.raises(InvariantViolation):
            verify_tree_scheme(_replaced(scheme, labels=broken_labels))

    def test_detects_heavy_non_child(self, tree_case):
        _, tree, scheme = tree_case
        victim = next(v for v, t in scheme.tables.items()
                      if t.heavy is not None and t.parent is not None)
        broken = dict(scheme.tables)
        broken[victim] = dataclasses.replace(
            broken[victim], heavy=broken[victim].parent
        )
        with pytest.raises(InvariantViolation, match="heavy"):
            verify_tree_scheme(_replaced(scheme, tables=broken))

    def test_detects_interval_gap(self, tree_case):
        _, tree, scheme = tree_case
        victim = next(v for v, t in scheme.tables.items()
                      if t.heavy is not None)
        broken = dict(scheme.tables)
        broken[victim] = dataclasses.replace(
            broken[victim], exit_=broken[victim].exit_ + 1
        )
        with pytest.raises(InvariantViolation):
            verify_tree_scheme(_replaced(scheme, tables=broken))


class TestVerifyGraphScheme:
    @pytest.fixture(scope="class")
    def graph_case(self):
        graph = random_connected_graph(80, seed=222)
        return graph, build_centralized_scheme(graph, 2, seed=222)

    def test_centralized_scheme_passes(self, graph_case):
        graph, scheme = graph_case
        verify_graph_scheme(
            graph=graph, scheme=scheme, sample_pairs=20, stretch_bound=5.0
        )

    def test_distributed_scheme_passes(self):
        graph = random_connected_graph(80, seed=223)
        report = build_distributed_scheme(graph, 2, seed=2)
        verify_graph_scheme(
            report.scheme, graph, sample_pairs=20, stretch_bound=5.0
        )

    def test_detects_unknown_tree_reference(self, graph_case):
        graph, scheme = graph_case
        victim = sorted(scheme.labels)[0]
        label = scheme.labels[victim]
        fake = ("ghost",)
        entries = tuple(
            (fake, e[1], e[2]) if e is not None else None for e in label.entries
        )
        original = scheme.labels[victim]
        scheme.labels[victim] = dataclasses.replace(label, entries=entries)
        try:
            with pytest.raises(InvariantViolation, match="unknown tree"):
                verify_graph_scheme(scheme, graph)
        finally:
            scheme.labels[victim] = original

    def test_detects_out_of_sync_tables(self, graph_case):
        graph, scheme = graph_case
        tree_id = sorted(scheme.tree_schemes, key=repr)[0]
        ts = scheme.tree_schemes[tree_id]
        victim = sorted(ts.tables, key=repr)[0]
        original = scheme.tables[victim].trees[tree_id]
        scheme.tables[victim].trees[tree_id] = dataclasses.replace(
            original, exit_=original.exit_ + 99
        )
        try:
            with pytest.raises(InvariantViolation, match="out of sync"):
                verify_graph_scheme(scheme, graph)
        finally:
            scheme.tables[victim].trees[tree_id] = original
