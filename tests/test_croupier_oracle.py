"""Croupier's per-node state against the reference of ``tests/croupier_oracle.py``.

``PartialView``, ``RatioEstimator`` and their value objects are driven side by
side with the verbatim pre-optimisation classes through generated operation
sequences, each side with its own generator seeded alike. After every step the
two must agree on the step's result, on the state it left (ids in order, ages,
estimate caches, hit windows) and on ``rng.getstate()``: the production code
may not draw one number more, less or different.
"""

import random

from hypothesis import example, given, settings, strategies as st

from croupier_oracle import (
    ReferenceNodeDescriptor,
    ReferencePartialView,
    ReferenceRatioEstimate,
    ReferenceRatioEstimator,
)
from repro.core.estimator import RatioEstimate, RatioEstimator
from repro.membership.descriptor import NodeDescriptor
from repro.membership.view import PartialView
from repro.net.address import Endpoint, NatType, NodeAddress

#: Enough ids to fill a view past both of ``sample``'s branch points for k = 5.
NODE_COUNT = 48
SELF_ID = 0


def _address(node_id: int) -> NodeAddress:
    public = node_id % 3 == 0
    return NodeAddress(
        node_id=node_id,
        endpoint=Endpoint(f"{'1' if public else '2'}.0.0.{node_id + 1}", 7000),
        nat_type=NatType.PUBLIC if public else NatType.PRIVATE,
    )


ADDRESSES = [_address(node_id) for node_id in range(NODE_COUNT)]
#: Every fourth id carries relay parents, so wire sizes are not all alike.
PARENTS = {
    node_id: tuple(ADDRESSES[(node_id + k) % NODE_COUNT] for k in (1, 2)[: node_id % 3])
    for node_id in range(0, NODE_COUNT, 4)
}


def _pair(node_id: int, age: int):
    """The same descriptor as a production and as a reference object."""
    parents = PARENTS.get(node_id, ())
    return (
        NodeDescriptor(ADDRESSES[node_id], age, parents),
        ReferenceNodeDescriptor(ADDRESSES[node_id], age, parents),
    )


def _plain(value):
    """A result with descriptors and estimates reduced to comparable tuples."""
    if isinstance(value, (NodeDescriptor, ReferenceNodeDescriptor)):
        return ("descriptor", value.node_id, value.age, value.parents)
    if isinstance(value, (RatioEstimate, ReferenceRatioEstimate)):
        return ("estimate", value.origin_id, value.value, value.age)
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


_node = st.integers(0, NODE_COUNT - 1)
_age = st.integers(0, 8)
_view_operations = st.lists(
    st.one_of(
        st.tuples(st.just("increase_ages"), st.integers(1, 3)),
        st.tuples(st.just("add"), _node, _age),
        st.tuples(st.just("remove"), _node),
        st.tuples(st.just("oldest"), st.booleans()),
        st.tuples(st.just("random_descriptor")),
        st.tuples(
            st.just("random_subset"),
            st.integers(0, 12),
            st.none() | st.lists(_node, max_size=3).map(tuple),
        ),
        st.tuples(
            st.just("update_view"),
            st.lists(_node, max_size=6),
            st.lists(st.tuples(_node, _age), max_size=8),
        ),
    ),
    max_size=40,
)


class TestViewOracle:
    """``PartialView`` against the parent commit's view, step by step."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        capacity=st.integers(1, 40),
        initial=st.lists(st.tuples(_node, _age), max_size=NODE_COUNT),
        seed=st.integers(0, 2**32 - 1),
        operations=_view_operations,
    )
    # A view of 30 sampled 5 at a time, again and again: ``sample``'s set branch
    # (30 > 21), which a ``k >= 5`` setsize rule (37) would swap for the pool branch.
    @example(
        capacity=40,
        initial=[(node_id, node_id % 5) for node_id in range(1, 31)],
        seed=7,
        operations=[("random_subset", 5, None)] * 12
        + [("increase_ages", 1), ("random_subset", 5, (3,))],
    )
    # The excluded id is in the view: it must not be handed out.
    @example(
        capacity=4,
        initial=[(1, 0), (2, 0), (3, 0)],
        seed=1,
        operations=[("random_subset", 2, (2,)), ("random_subset", 3, (2, 40))],
    )
    def test_same_results_contents_and_draws_at_every_step(
        self, capacity, initial, seed, operations
    ):
        view = PartialView(capacity)
        reference = ReferencePartialView(capacity)
        rng = random.Random(seed)
        reference_rng = random.Random(seed)
        for node_id, age in initial:
            produced, expected = _pair(node_id, age)
            assert view.add(produced) == reference.add(expected)
        for step, operation in enumerate(operations):
            kind = operation[0]
            if kind == "increase_ages":
                got = view.increase_ages(operation[1])
                expected = reference.increase_ages(operation[1])
            elif kind == "add":
                produced, expected_descriptor = _pair(operation[1], operation[2])
                got = view.add(produced)
                expected = reference.add(expected_descriptor)
            elif kind == "remove":
                got = view.remove(operation[1])
                expected = reference.remove(operation[1])
            elif kind == "oldest":
                got = view.oldest(rng if operation[1] else None)
                expected = reference.oldest(reference_rng if operation[1] else None)
            elif kind == "random_descriptor":
                got = view.random_descriptor(rng)
                expected = reference.random_descriptor(reference_rng)
            elif kind == "random_subset":
                got = view.random_subset(rng, operation[1], operation[2])
                expected = reference.random_subset(reference_rng, operation[1], operation[2])
            else:
                sent = [_pair(node_id, 0) for node_id in operation[1]]
                received = [_pair(node_id, age) for node_id, age in operation[2]]
                got = view.update_view(
                    [pair[0] for pair in sent], [pair[0] for pair in received], SELF_ID
                )
                expected = reference.update_view(
                    [pair[1] for pair in sent], [pair[1] for pair in received], SELF_ID
                )
            context = f"step {step}: {operation}"
            assert _plain(got) == _plain(expected), context
            assert view.node_ids() == reference.node_ids(), context
            assert [view.get(node_id).age for node_id in view.node_ids()] == [
                reference.age_of(node_id) for node_id in reference.node_ids()
            ], context
            assert rng.getstate() == reference_rng.getstate(), context
        assert _plain(view.descriptors()) == _plain(reference.descriptors())


_origin = st.integers(1, 60)
_estimate = st.none() | st.tuples(
    _origin, st.sampled_from((0.0, 0.125, 0.2, 0.25, 1 / 3, 0.5, 1.0)), st.integers(0, 12)
)
_estimator_operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.booleans()),
        st.tuples(st.just("advance_round")),
        st.tuples(st.just("merge"), st.lists(_estimate, max_size=12)),
        st.tuples(st.just("estimates_subset"), st.integers(0, 12)),
        st.tuples(st.just("estimate_ratio")),
        st.tuples(st.just("own_estimate_record")),
    ),
    max_size=60,
)


def _estimates(raw, cls):
    return [None if item is None else cls(*item) for item in raw]


class TestEstimatorOracle:
    """``RatioEstimator`` against the parent commit's estimator, step by step."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        alpha=st.integers(1, 6),
        gamma=st.integers(1, 10),
        is_public=st.booleans(),
        initial=st.lists(_estimate, max_size=60),
        seed=st.integers(0, 2**32 - 1),
        operations=_estimator_operations,
    )
    # Thirty cached origins sampled 5 at a time (see the view's first example).
    @example(
        alpha=3,
        gamma=10,
        is_public=True,
        initial=[(origin, 0.25, 0) for origin in range(1, 31)],
        seed=3,
        operations=[("estimates_subset", 5)] * 12 + [("advance_round",), ("estimates_subset", 5)],
    )
    # More rounds than the α-window holds, each with a different hit mix: the
    # round pushed out of the window must leave the running sums exactly.
    @example(
        alpha=2,
        gamma=5,
        is_public=True,
        initial=[],
        seed=0,
        operations=[
            ("record", True), ("advance_round",), ("record", False), ("record", False),
            ("advance_round",), ("record", True), ("advance_round",), ("own_estimate_record",),
            ("advance_round",), ("estimate_ratio",), ("advance_round",), ("estimate_ratio",),
        ],
    )
    def test_same_results_caches_and_draws_at_every_step(
        self, alpha, gamma, is_public, initial, seed, operations
    ):
        estimator = RatioEstimator(alpha, gamma, is_public)
        reference = ReferenceRatioEstimator(alpha, gamma, is_public)
        rng = random.Random(seed)
        reference_rng = random.Random(seed)
        assert estimator.merge_estimates(_estimates(initial, RatioEstimate)) == (
            reference.merge_estimates(_estimates(initial, ReferenceRatioEstimate))
        )
        for step, operation in enumerate(operations):
            kind = operation[0]
            if kind == "record":
                got = estimator.record_shuffle_request(operation[1])
                expected = reference.record_shuffle_request(operation[1])
            elif kind == "advance_round":
                got = estimator.advance_round()
                expected = reference.advance_round()
            elif kind == "merge":
                got = estimator.merge_estimates(_estimates(operation[1], RatioEstimate))
                expected = reference.merge_estimates(
                    _estimates(operation[1], ReferenceRatioEstimate)
                )
            elif kind == "estimates_subset":
                got = estimator.estimates_subset(rng, operation[1])
                expected = reference.estimates_subset(reference_rng, operation[1])
            elif kind == "estimate_ratio":
                got = estimator.estimate_ratio()
                expected = reference.estimate_ratio()
            else:
                got = estimator.own_estimate_record(SELF_ID)
                expected = reference.own_estimate_record(SELF_ID)
            context = f"step {step}: {operation}"
            assert _plain(got) == _plain(expected), context
            assert _plain(estimator.neighbour_estimates()) == _plain(
                reference.neighbour_estimates()
            ), context
            assert estimator.history_snapshot() == reference.history_snapshot(), context
            assert estimator.current_round_hits == reference.current_round_hits, context
            assert estimator.local_estimate() == reference.local_estimate(), context
            assert rng.getstate() == reference_rng.getstate(), context
