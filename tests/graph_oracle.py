"""A reference for the union-find component counts of ``repro.metrics.partition``:
the components themselves, by breadth-first search over an undirected copy."""

from typing import Dict, List, Set

from repro.metrics.partition import Adjacency


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
