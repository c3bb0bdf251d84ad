"""Connectivity metrics: connected components and the biggest-cluster fraction (Fig. 7b)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Set

#: Directed adjacency ``{node: neighbours}``: the object scenario's dict of
#: sets, or the columnar scenario's read-only view, which builds each
#: neighbour set when it is read. Every function here only iterates
#: ``items()`` and tests key membership, so either works;
#: :func:`largest_cluster_fraction` and :func:`partition_count` never hold more
#: than one neighbour set of it at a time.
Adjacency = Mapping[int, Set[int]]


def connected_components(graph: Adjacency) -> List[Set[int]]:
    """Connected components of the overlay, treating edges as undirected.

    The paper's catastrophic-failure experiment asks how much of the surviving overlay
    remains mutually reachable; undirected connectivity is the measure used in the PSS
    literature it builds on.
    """
    undirected: Dict[int, Set[int]] = {node: set() for node in graph}
    for node, neighbours in graph.items():
        for neighbour in neighbours:
            if neighbour in undirected and neighbour != node:
                undirected[node].add(neighbour)
                undirected[neighbour].add(node)

    seen: Set[int] = set()
    components: List[Set[int]] = []
    for start in undirected:
        if start in seen:
            continue
        component = {start}
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            for neighbour in undirected[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    component.add(neighbour)
                    stack.append(neighbour)
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def _component_sizes(graph: Adjacency) -> List[int]:
    """Sizes of the components :func:`connected_components` would return, in no
    particular order, by union-find over the directed edges.

    :func:`connected_components` first builds an undirected dict-of-sets copy of
    the graph; at 50 000 nodes that copy is larger than the columnar engine's
    whole run, and the two scalars below need only the sizes. Edges to nodes
    that are not keys of ``graph`` and self-loops are skipped, as there.
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


def partition_count(graph: Adjacency) -> int:
    """Number of connected components (1 means the overlay is not partitioned)."""
    return len(_component_sizes(graph))
