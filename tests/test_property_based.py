"""Property-based tests (hypothesis) for the core data structures and invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.estimator import RatioEstimate, RatioEstimator
from repro.core.sampling import generate_random_sample
from repro.membership.view import PartialView
from repro.metrics.graph import build_overlay_graph, in_degrees
from graph_oracle import connected_components
from repro.metrics.partition import largest_cluster_fraction
from repro.nat.allocator import AllocationPolicy, PortAllocator
from repro.net.address import format_ipv4, parse_ipv4
from tests.test_descriptor_view import make_descriptor

# ----------------------------------------------------------------------------- addresses


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_ipv4_roundtrip(value):
    assert parse_ipv4(format_ipv4(value)) == value


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_ipv4_format_produces_four_octets(value):
    text = format_ipv4(value)
    octets = text.split(".")
    assert len(octets) == 4
    assert all(0 <= int(o) <= 255 for o in octets)


# ----------------------------------------------------------------------------- views

descriptor_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=30)),
    max_size=40,
)


@given(capacity=st.integers(min_value=1, max_value=12), entries=descriptor_lists)
def test_view_never_exceeds_capacity_or_duplicates(capacity, entries):
    view = PartialView(capacity)
    for node_id, age in entries:
        view.add(make_descriptor(node_id, age=age))
    assert len(view) <= capacity
    ids = view.node_ids()
    assert len(ids) == len(set(ids))


@given(
    capacity=st.integers(min_value=1, max_value=10),
    existing=descriptor_lists,
    received=descriptor_lists,
    self_id=st.integers(min_value=1, max_value=40),
)
def test_update_view_preserves_bound_and_excludes_self(capacity, existing, received, self_id):
    view = PartialView(capacity)
    for node_id, age in existing:
        if node_id != self_id:  # a node never stores its own descriptor to begin with
            view.add(make_descriptor(node_id, age=age))
    sent = view.random_subset(random.Random(0), min(3, capacity))
    view.update_view(
        sent=sent,
        received=[make_descriptor(node_id, age=age) for node_id, age in received],
        self_id=self_id,
    )
    assert len(view) <= capacity
    assert self_id not in view


@given(entries=descriptor_lists)
def test_view_oldest_is_maximal_age(entries):
    view = PartialView(50)
    for node_id, age in entries:
        view.add(make_descriptor(node_id, age=age))
    oldest = view.oldest(random.Random(1))
    if oldest is None:
        assert view.is_empty
    else:
        assert oldest.age == max(d.age for d in view)


@given(entries=descriptor_lists, k=st.integers(min_value=0, max_value=10))
def test_random_subset_members_and_size(entries, k):
    view = PartialView(50)
    for node_id, age in entries:
        view.add(make_descriptor(node_id, age=age))
    subset = view.random_subset(random.Random(2), k)
    assert len(subset) == min(k, len(view))
    ids = [d.node_id for d in subset]
    assert len(ids) == len(set(ids))
    assert all(node_id in view for node_id in ids)


# ----------------------------------------------------------------------------- estimator


@given(
    rounds=st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20)),
        min_size=1,
        max_size=60,
    ),
    alpha=st.integers(min_value=1, max_value=20),
)
def test_local_estimate_stays_in_unit_interval(rounds, alpha):
    estimator = RatioEstimator(alpha=alpha, gamma=10, is_public=True)
    for public_hits, private_hits in rounds:
        for _ in range(public_hits):
            estimator.record_shuffle_request(True)
        for _ in range(private_hits):
            estimator.record_shuffle_request(False)
        estimator.advance_round()
        estimate = estimator.local_estimate()
        assert estimate is None or 0.0 <= estimate <= 1.0
    assert len(estimator.history_snapshot()) <= alpha


@given(
    estimates=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=30),
            st.floats(min_value=0.0, max_value=1.0),
            st.integers(min_value=0, max_value=60),
        ),
        max_size=60,
    ),
    gamma=st.integers(min_value=1, max_value=30),
    is_public=st.booleans(),
)
def test_merged_estimates_respect_gamma_and_unit_interval(estimates, gamma, is_public):
    estimator = RatioEstimator(alpha=5, gamma=gamma, is_public=is_public)
    estimator.merge_estimates(
        [RatioEstimate(origin, value, age) for origin, value, age in estimates]
    )
    assert all(e.age <= gamma for e in estimator.neighbour_estimates())
    ratio = estimator.estimate_ratio()
    assert ratio is None or 0.0 <= ratio <= 1.0


@given(
    values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20)
)
def test_private_estimate_is_mean_of_neighbour_values(values):
    estimator = RatioEstimator(alpha=5, gamma=50, is_public=False)
    estimator.merge_estimates(
        [RatioEstimate(origin_id=i + 1, value=v, age=0) for i, v in enumerate(values)]
    )
    expected = sum(values) / len(values)
    assert abs(estimator.estimate_ratio() - expected) < 1e-9


# ----------------------------------------------------------------------------- sampling


@given(
    n_public=st.integers(min_value=0, max_value=8),
    n_private=st.integers(min_value=0, max_value=8),
    ratio=st.one_of(st.none(), st.floats(min_value=-0.5, max_value=1.5)),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_sample_always_comes_from_a_view_or_is_none(n_public, n_private, ratio, seed):
    public_view = PartialView(max(1, n_public))
    private_view = PartialView(max(1, n_private))
    for node_id in range(1, n_public + 1):
        public_view.add(make_descriptor(node_id, public=True))
    for node_id in range(100, 100 + n_private):
        private_view.add(make_descriptor(node_id, public=False))
    sample = generate_random_sample(public_view, private_view, ratio, random.Random(seed))
    if n_public == 0 and n_private == 0:
        assert sample is None
    else:
        members = set(public_view.node_ids()) | set(private_view.node_ids())
        assert sample.node_id in members


# ----------------------------------------------------------------------------- graphs

graph_strategy = st.dictionaries(
    keys=st.integers(min_value=0, max_value=25),
    values=st.sets(st.integers(min_value=0, max_value=25), max_size=6),
    max_size=26,
)


@given(graph_strategy)
def test_largest_cluster_fraction_bounds(raw):
    graph = build_overlay_graph(raw)
    fraction = largest_cluster_fraction(graph)
    if graph:
        assert 0.0 < fraction <= 1.0
    else:
        assert fraction == 0.0
    if raw:  # dangling edges and self-loops still in: counted as by the component sets
        assert largest_cluster_fraction(raw) == (
            len(connected_components(raw)[0]) / len(raw))


@given(graph_strategy)
def test_connected_components_partition_the_nodes(raw):
    graph = build_overlay_graph(raw)
    components = connected_components(graph)
    covered = set()
    for component in components:
        assert not (component & covered), "components must be disjoint"
        covered |= component
    assert covered == set(graph)


@given(graph_strategy)
def test_total_in_degree_equals_edge_count(raw):
    graph = build_overlay_graph(raw)
    total_edges = sum(len(neighbours) for neighbours in graph.values())
    assert sum(in_degrees(graph).values()) == total_edges


# ----------------------------------------------------------------------------- NAT ports


@given(
    preferred=st.lists(st.integers(min_value=1024, max_value=2048), max_size=200),
    policy=st.sampled_from(list(AllocationPolicy)),
)
@settings(max_examples=30)
def test_port_allocator_never_hands_out_duplicates(preferred, policy):
    allocator = PortAllocator(policy)
    allocated = [allocator.allocate(preferred_port=p) for p in preferred]
    assert len(allocated) == len(set(allocated))
