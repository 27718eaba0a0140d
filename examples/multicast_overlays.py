#!/usr/bin/env python
"""Parallel routing-scheme construction for many multicast overlay trees.

Scenario: a service mesh runs ``s`` multicast overlays over one physical
network; every overlay is a spanning tree and every node may participate in
all of them.  Theorem 2's second assertion says all ``s`` schemes can be
built *in parallel* in Õ(sqrt(s n) + D) rounds with O(s log n) memory per
vertex -- not the naive ``s x sqrt(n)`` obtained by building them one by
one.

This example builds 6 overlay trees, verifies all six schemes route
exactly, and prints the parallel-vs-naive round comparison.

Run:  python examples/multicast_overlays.py
"""

import math
import random

from repro import (
    Network,
    build_tree_schemes,
    random_connected_graph,
    route_in_tree,
    spanning_tree_of,
)
from repro.graphs import tree_distance


def main() -> None:
    n, s = 500, 6
    graph = random_connected_graph(n, seed=13)
    trees = {
        f"overlay-{i}": spanning_tree_of(graph, style="random", seed=100 + i)
        for i in range(s)
    }

    net = Network(graph)
    build = build_tree_schemes(net, trees, seed=13)

    print(f"{s} overlays over n={n}; q = 1/sqrt(sn) = {build.q:.4f}")
    print(f"parallel schedule:   {build.rounds_parallel:>7} rounds "
          f"(Õ(sqrt(sn)+D); sqrt(sn)={math.sqrt(s * n):.0f})")
    print(f"naive sequential:    {build.rounds_sequential:>7} rounds "
          f"(sum over trees)")
    print(f"memory high-water:   {net.max_memory():>7} words "
          f"(paper: O(s log n) = {s}*{n.bit_length()} = {s * n.bit_length()})")

    weight = lambda u, v: graph[u][v]["weight"]
    rng = random.Random(1)
    checked = 0
    for tree_id, scheme in build.schemes.items():
        for _ in range(20):
            u, v = rng.sample(list(trees[tree_id]), 2)
            result = route_in_tree(scheme, u, v, weight_of=weight)
            exact = tree_distance(trees[tree_id], weight, u, v)
            assert abs(result.length - exact) < 1e-9, (tree_id, u, v)
            checked += 1
    print(f"\nrouted {checked} random pairs across the {s} overlays: all exact.")


if __name__ == "__main__":
    main()
