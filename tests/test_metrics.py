"""Unit tests for the graph, partition, estimation and overhead metrics."""

import random

import pytest

from graph_oracle import connected_components
from repro.metrics.estimation import (
    EstimationErrorSeries,
    average_error,
    max_error,
)
from repro.metrics.graph import (
    average_clustering_coefficient,
    average_path_length,
    build_overlay_graph,
    degree_statistics,
    in_degree_distribution,
    in_degrees,
    out_degrees,
)
from repro.metrics import graph as graph_module
from repro.metrics.collector import TimeSeries, merge_series
from repro.metrics import partition
from repro.metrics.partition import largest_cluster_fraction
from repro.net.address import Endpoint, NatType, NodeAddress
from repro.simulator.message import Message
from repro.simulator.monitor import TrafficMonitor


def ring_graph(n):
    return {i: {(i + 1) % n} for i in range(n)}


def star_graph(n):
    graph = {0: set(range(1, n))}
    for i in range(1, n):
        graph[i] = set()
    return graph


def complete_graph(n):
    return {i: {j for j in range(n) if j != i} for i in range(n)}


class TestInDegrees:
    def test_ring_in_degrees_all_one(self):
        degrees = in_degrees(ring_graph(6))
        assert all(d == 1 for d in degrees.values())

    def test_star_in_degrees(self):
        degrees = in_degrees(star_graph(5))
        assert degrees[0] == 0
        assert all(degrees[i] == 1 for i in range(1, 5))

    def test_distribution_histogram(self):
        histogram = in_degree_distribution(star_graph(5))
        assert histogram == {0: 1, 1: 4}

    def test_edges_to_unknown_nodes_ignored(self):
        graph = {1: {2, 99}, 2: set()}
        assert in_degrees(graph)[2] == 1
        assert 99 not in in_degrees(graph)

    def test_self_loops_ignored(self):
        graph = {1: {1, 2}, 2: set()}
        assert in_degrees(graph)[1] == 0

    def test_degree_statistics(self):
        stats = degree_statistics(complete_graph(4))
        assert stats["mean"] == pytest.approx(3.0)
        assert stats["stddev"] == pytest.approx(0.0)
        assert degree_statistics({})["mean"] == 0.0

    def test_out_degrees(self):
        assert sorted(out_degrees(star_graph(4))) == [0, 0, 0, 3]


class TestPathLength:
    def test_complete_graph_path_length_one(self):
        assert average_path_length(complete_graph(5)) == pytest.approx(1.0)

    def test_ring_path_length(self):
        # Undirected 4-ring: distances from any node are 1, 1, 2 -> average 4/3.
        assert average_path_length(ring_graph(4)) == pytest.approx(4.0 / 3.0)

    def test_tiny_graphs_return_none(self):
        assert average_path_length({}) is None
        assert average_path_length({1: set()}) is None

    def test_disconnected_pairs_are_skipped(self):
        graph = {1: {2}, 2: set(), 3: {4}, 4: set()}
        assert average_path_length(graph) == pytest.approx(1.0)

    def test_sampled_estimate_close_to_exact(self):
        rng = random.Random(0)
        graph = {i: {rng.randrange(50) for _ in range(4)} for i in range(50)}
        exact = average_path_length(graph)
        sampled = average_path_length(graph, sample_sources=25, rng=random.Random(1))
        assert abs(exact - sampled) < 0.4


class TestClustering:
    def test_complete_graph_clustering_one(self):
        assert average_clustering_coefficient(complete_graph(5)) == pytest.approx(1.0)

    def test_star_graph_clustering_zero(self):
        assert average_clustering_coefficient(star_graph(6)) == pytest.approx(0.0)

    def test_triangle_plus_tail(self):
        graph = {1: {2, 3}, 2: {3}, 3: set(), 4: {1}}
        # nodes 1,2,3 form a triangle; node 4 dangles off node 1.
        undirected = graph_module._undirected(graph)
        assert graph_module._local_clustering(undirected, 2) == pytest.approx(1.0)
        assert graph_module._local_clustering(undirected, 4) == pytest.approx(0.0)
        assert 0.0 < average_clustering_coefficient(graph) < 1.0

    def test_empty_graph_returns_none(self):
        assert average_clustering_coefficient({}) is None


class TestPartition:
    def test_single_component(self):
        assert len(connected_components(ring_graph(5))) == 1
        assert largest_cluster_fraction(ring_graph(5)) == pytest.approx(1.0)

    def test_two_components(self):
        graph = {1: {2}, 2: set(), 3: {4}, 4: set(), 5: set()}
        components = connected_components(graph)
        assert len(components) == 3
        assert largest_cluster_fraction(graph) == pytest.approx(2 / 5)

    def test_empty_graph(self):
        assert largest_cluster_fraction({}) == 0.0
        assert connected_components({}) == []

    def test_components_sorted_by_size(self):
        graph = {1: set(), 2: {3}, 3: {4}, 4: set()}
        components = connected_components(graph)
        assert len(components[0]) == 3

    @pytest.mark.parametrize("graph", [
        pytest.param({}, id="empty"),
        pytest.param(ring_graph(5), id="ring5"),
        pytest.param(ring_graph(6), id="ring6"),
        pytest.param(star_graph(5), id="star5"),
        pytest.param(star_graph(6), id="star6"),
        pytest.param(complete_graph(4), id="complete4"),
        pytest.param(complete_graph(5), id="complete5"),
        pytest.param({1: {2}, 2: set(), 3: {4}, 4: set(), 5: set()}, id="pairs"),
        pytest.param({1: set(), 2: {3}, 3: {4}, 4: set()}, id="chain"),
        pytest.param({1: {2, 3}, 2: {3}, 3: {1}, 4: {1}}, id="triangle-tail"),
        # two rings and a star that share no edge
        pytest.param(
            {**ring_graph(7), **{10 + i: {10 + (i + 1) % 4} for i in range(4)},
             20: {21, 22}, 21: set(), 22: set()}, id="partitioned"),
        # 98 and 99 are not nodes; edges to them, and self-loops, link nothing
        pytest.param({1: {2, 99}, 2: {2}, 3: {98}, 4: {4, 3}, 5: {99}},
                     id="dangling"),
    ])
    def test_scalars_agree_with_connected_components(self, graph):
        """``largest_cluster_fraction`` counts by union-find, without the undirected
        copy; same numbers as the component sets give."""
        components = connected_components(graph)
        assert len(partition._component_sizes(graph)) == len(components)
        expected = len(components[0]) / len(graph) if graph else 0.0
        assert largest_cluster_fraction(graph) == expected


class TestBuildOverlayGraph:
    def test_drops_edges_to_unknown_nodes(self):
        graph = build_overlay_graph({1: [2, 99], 2: [1]})
        assert graph == {1: {2}, 2: {1}}

    def test_drops_self_edges(self):
        graph = build_overlay_graph({1: [1, 2], 2: []})
        assert graph[1] == {2}


class TestEstimationMetrics:
    def test_average_and_max_error(self):
        estimates = [0.25, 0.15, None, 0.2]
        assert average_error(0.2, estimates) == pytest.approx(0.1 / 3)
        assert max_error(0.2, estimates) == pytest.approx(0.05)

    def test_no_estimates_returns_none(self):
        assert average_error(0.2, [None, None]) is None
        assert max_error(0.2, []) is None

    def test_series_recording_and_summaries(self):
        series = EstimationErrorSeries(name="test")
        for round_index in range(20):
            error = 0.2 if round_index < 10 else 0.001
            series.record(round_index * 1000.0, 0.2, [0.2 + error, 0.2 - error])
        assert len(series) == 20
        assert series.final_avg_error(tail=5) == pytest.approx(0.001)
        assert series.final_max_error(tail=5) == pytest.approx(0.001)

    def test_samples_with_no_known_estimates(self):
        series = EstimationErrorSeries(name="test")
        sample = series.record(0.0, 0.2, [None, None])
        assert sample.avg_error is None and sample.nodes_measured == 0


class TestTimeSeries:
    def test_merge_series(self):
        a, b = TimeSeries(name="a"), TimeSeries(name="b")
        merged = merge_series([a, b])
        assert set(merged) == {"a", "b"}


class _FakeMessage(Message):
    def payload_size(self) -> int:
        return 72


class TestOverheadMeasurement:
    def test_snapshot_isolation(self):
        monitor = TrafficMonitor()
        node = NodeAddress(1, Endpoint("1.0.0.1", 7000), NatType.PUBLIC)
        message = _FakeMessage()
        monitor.record_sent(node, message, message.wire_size)
        snapshot = monitor.snapshot(0.0)
        monitor.record_sent(node, message, message.wire_size)
        load = monitor.average_load_bps(snapshot, 1_000.0)
        assert load == pytest.approx(100.0)  # only the second message is in the window

    def test_zero_window_returns_zero(self):
        monitor = TrafficMonitor()
        snapshot = monitor.snapshot(5_000.0)
        assert monitor.average_load_bps(snapshot, 5_000.0) == 0.0
