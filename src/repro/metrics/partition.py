"""Connectivity metric: the biggest-cluster fraction of Figure 7(b)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Set

#: Directed adjacency ``{node: neighbours}``: the object scenario's dict of
#: sets, or the columnar scenario's read-only view, which builds each
#: neighbour set when it is read. Every function here only iterates
#: ``items()`` and tests key membership, so either works;
#: :func:`largest_cluster_fraction` never holds more than one neighbour set of it
#: at a time.
Adjacency = Mapping[int, Set[int]]


def _component_sizes(graph: Adjacency) -> List[int]:
    """Sizes of the overlay's connected components (edges taken as undirected), in
    no particular order, by union-find over the directed edges.

    An undirected dict-of-sets copy of the graph would be larger, at 50 000 nodes,
    than the columnar engine's whole run, and the scalar below needs only the
    sizes. Edges to nodes that are not keys of ``graph`` and self-loops link
    nothing.
    """
    parent: Dict[int, int] = {node: node for node in graph}
    size: Dict[int, int] = dict.fromkeys(graph, 1)  # roots only, by the end

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]  # path halving
            node = parent[node]
        return node

    for node, neighbours in graph.items():
        for neighbour in neighbours:
            if neighbour not in parent or neighbour == node:
                continue
            root, other = find(node), find(neighbour)
            if root == other:
                continue
            if size[root] < size[other]:
                root, other = other, root
            parent[other] = root
            size[root] += size.pop(other)
    return list(size.values())


def largest_cluster_fraction(graph: Adjacency) -> float:
    """Fraction of (surviving) nodes inside the biggest connected cluster.

    This is exactly the y-axis of Figure 7(b): after killing a percentage of nodes, the
    graph passed in contains only the survivors and their view edges towards other
    survivors, and the metric reports ``|biggest component| / |survivors|`` (as a value
    in [0, 1]; the paper plots it as a percentage).
    """
    if not graph:
        return 0.0
    return max(_component_sizes(graph)) / len(graph)
