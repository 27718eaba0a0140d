#!/usr/bin/env python
"""Shipping a scheme to disk: build once, save, reload, route.

Build the paper's tree-routing scheme once, save it as JSON, reload it,
and keep routing from the reloaded copy -- preprocessing and routing
phases can run in different processes.

Run:  python examples/serialize_scheme.py
"""

import io

from repro import Network, random_connected_graph, spanning_tree_of
from repro.routing import load_scheme, route_in_tree, save_scheme
from repro.treerouting import build_distributed_tree_scheme


def main() -> None:
    graph = random_connected_graph(200, seed=5)
    tree = spanning_tree_of(graph, style="dfs")
    build = build_distributed_tree_scheme(Network(graph), tree, seed=5)
    buffer = io.StringIO()
    save_scheme(build.scheme, buffer)
    print(f"serialized scheme: {len(buffer.getvalue()) / 1024:.1f} KiB of JSON")

    buffer.seek(0)
    reloaded = load_scheme(buffer)
    nodes = sorted(tree)
    weight = lambda u, v: graph[u][v]["weight"]
    route = route_in_tree(reloaded, nodes[0], nodes[-1], weight_of=weight)
    print(f"routing with the reloaded scheme: {nodes[0]} -> {nodes[-1]}, "
          f"{route.hops} hops, length {route.length:.2f} (exact)")


if __name__ == "__main__":
    main()
