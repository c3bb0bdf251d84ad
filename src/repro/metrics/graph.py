"""Overlay-graph randomness metrics (Figure 6 of the paper).

A peer-sampling service induces a directed overlay graph: there is an edge from node A
to node B if B's descriptor is in A's view(s). The paper (following [6], [7]) judges the
randomness of a PSS by how close three properties of this graph are to those of a random
graph with the same out-degree:

* the **in-degree distribution** (Figure 6a) — should be narrowly concentrated;
* the **average path length** (Figure 6b) — should be short (logarithmic in system size);
* the **clustering coefficient** (Figure 6c) — should be low.

The functions below work on a plain ``{node_id: set(neighbour_ids)}`` adjacency mapping
so they are usable both on live scenarios and on synthetic graphs in tests. Path length
and clustering treat the graph as undirected (the standard convention in the PSS
literature); in-degree uses the directed edges.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Dict, Iterable, List, Mapping, Optional, Set

Adjacency = Mapping[int, Set[int]]


def in_degrees(graph: Adjacency) -> Dict[int, int]:
    """Number of incoming edges for every node in the (directed) overlay graph."""
    counts: Dict[int, int] = {node: 0 for node in graph}
    for node, neighbours in graph.items():
        for neighbour in neighbours:
            if neighbour == node:
                continue
            if neighbour in counts:
                counts[neighbour] += 1
    return counts


def in_degree_distribution(graph: Adjacency) -> Dict[int, int]:
    """Histogram ``{in_degree: number_of_nodes}`` — the series plotted in Figure 6(a)."""
    return dict(Counter(in_degrees(graph).values()))


def _undirected(graph: Adjacency) -> Dict[int, Set[int]]:
    undirected: Dict[int, Set[int]] = {node: set() for node in graph}
    for node, neighbours in graph.items():
        for neighbour in neighbours:
            if neighbour == node or neighbour not in undirected:
                continue
            undirected[node].add(neighbour)
            undirected[neighbour].add(node)
    return undirected


def average_path_length(
    graph: Adjacency,
    sample_sources: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Optional[float]:
    """Mean shortest-path length between reachable node pairs (Figure 6b).

    Parameters
    ----------
    graph:
        Directed adjacency; paths are computed on its undirected version.
    sample_sources:
        If given, BFS is run only from this many randomly chosen source nodes — an
        unbiased estimator of the full average that keeps large experiments tractable
        (all-pairs BFS on 1000 nodes is ~10⁶ visits per measurement instant).
    rng:
        Source of randomness for the sampling; required if ``sample_sources`` is set.

    Returns ``None`` for graphs with fewer than two nodes or no reachable pairs.
    """
    undirected = _undirected(graph)
    nodes = list(undirected)
    if len(nodes) < 2:
        return None
    if sample_sources is not None and sample_sources < len(nodes):
        if rng is None:
            rng = random.Random(0)
        sources: Iterable[int] = rng.sample(nodes, sample_sources)
    else:
        sources = nodes

    total_distance = 0
    total_pairs = 0
    for source in sources:
        distances = _bfs_distances(undirected, source)
        for target, distance in distances.items():
            if target == source:
                continue
            total_distance += distance
            total_pairs += 1
    if total_pairs == 0:
        return None
    return total_distance / total_pairs


def _bfs_distances(undirected: Mapping[int, Set[int]], source: int) -> Dict[int, int]:
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in undirected[node]:
            if neighbour not in distances:
                distances[neighbour] = distances[node] + 1
                queue.append(neighbour)
    return distances



def _local_clustering(undirected: Mapping[int, Set[int]], node: int) -> float:
    neighbours = list(undirected.get(node, ()))
    degree = len(neighbours)
    if degree < 2:
        return 0.0
    links = 0
    for i in range(degree):
        for j in range(i + 1, degree):
            if neighbours[j] in undirected[neighbours[i]]:
                links += 1
    return (2.0 * links) / (degree * (degree - 1))


def average_clustering_coefficient(graph: Adjacency) -> Optional[float]:
    """Mean local clustering coefficient over all nodes (Figure 6c)."""
    undirected = _undirected(graph)
    if not undirected:
        return None
    total = sum(_local_clustering(undirected, node) for node in undirected)
    return total / len(undirected)


def degree_statistics(graph: Adjacency) -> Dict[str, float]:
    """Summary statistics of the in-degree distribution (used in reports and tests)."""
    degrees = list(in_degrees(graph).values())
    if not degrees:
        return {"mean": 0.0, "min": 0.0, "max": 0.0, "stddev": 0.0}
    mean = sum(degrees) / len(degrees)
    variance = sum((d - mean) ** 2 for d in degrees) / len(degrees)
    return {
        "mean": mean,
        "min": float(min(degrees)),
        "max": float(max(degrees)),
        "stddev": variance ** 0.5,
    }


def build_overlay_graph(neighbour_map: Mapping[int, Iterable[int]]) -> Dict[int, Set[int]]:
    """Normalise an ``{node: iterable_of_neighbours}`` mapping into adjacency sets.

    Edges pointing at nodes that are not themselves keys of the mapping (e.g. failed
    nodes still present in somebody's view) are dropped — exactly what the paper's
    connectivity analysis after catastrophic failure requires.
    """
    nodes = set(neighbour_map)
    return {
        node: {n for n in neighbours if n in nodes and n != node}
        for node, neighbours in neighbour_map.items()
    }


def out_degrees(graph: Adjacency) -> List[int]:
    """Out-degree of every node (view occupancy); useful as a sanity check in tests."""
    return [len(neighbours) for neighbours in graph.values()]
