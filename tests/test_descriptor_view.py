"""Unit tests for node descriptors and bounded partial views."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.membership.base import ViewShuffleResponse
from repro.membership.descriptor import NodeDescriptor
from repro.membership.view import PartialView
from repro.net.address import Endpoint, NatType, NodeAddress


def make_descriptor(node_id: int, age: int = 0, public: bool = True) -> NodeDescriptor:
    nat_type = NatType.PUBLIC if public else NatType.PRIVATE
    prefix = "1.0" if public else "2.0"
    address = NodeAddress(
        node_id=node_id,
        endpoint=Endpoint(f"{prefix}.{node_id // 250}.{node_id % 250 + 1}", 7000),
        nat_type=nat_type,
        private_endpoint=None if public else Endpoint(f"10.0.{node_id // 250}.{node_id % 250 + 1}", 7000),
    )
    return NodeDescriptor(address=address, age=age)


class TestNodeDescriptor:
    def test_basic_properties(self):
        d = make_descriptor(5, age=3)
        assert d.node_id == 5
        assert d.age == 3
        assert d.is_public and not d.address.is_private

    def test_aged_returns_copy(self):
        d = make_descriptor(1, age=2)
        older = d.aged()
        assert older.age == 3
        assert d.age == 2

    def test_copy_shares_the_immutable_instance(self):
        d = make_descriptor(1)
        clone = d.copy()
        assert clone is d  # descriptors are immutable: sharing is always safe
        assert clone.node_id == d.node_id and clone.age == d.age

    def test_descriptor_is_immutable(self):
        d = make_descriptor(1, age=2)
        with pytest.raises(AttributeError):
            d.age = 99
        with pytest.raises(AttributeError):
            del d.age
        assert d.age == 2

    def test_with_age_derives_new_descriptor(self):
        d = make_descriptor(1, age=2)
        older = d.with_age(7)
        assert older.age == 7 and older is not d
        assert d.with_age(2) is d  # no-op rebinding returns the same object
        parents = (make_descriptor(2).address, make_descriptor(3).address)
        assert make_descriptor(1, public=False).with_parents(parents).parents == parents

    def test_wire_size_is_cached_and_stable(self):
        message = ViewShuffleResponse(sender=make_descriptor(1), descriptors=(make_descriptor(2),))
        assert message.wire_size == message.wire_size == 28 + 2 * 12
        assert message._wire_size_cache == 28 + 2 * 12

    def test_freshness_comparison(self):
        assert make_descriptor(1, age=1).is_fresher_than(make_descriptor(1, age=5))
        assert not make_descriptor(1, age=5).is_fresher_than(make_descriptor(1, age=1))

    def test_wire_size_without_parents(self):
        # a shuffle carrying only its sender: 11-byte address + 1-byte age
        assert ViewShuffleResponse(sender=make_descriptor(1)).payload_size() == 12


class TestPartialViewBasics:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            PartialView(0)

    def test_add_until_full(self):
        view = PartialView(3)
        for node_id in range(3):
            assert view.add(make_descriptor(node_id))
        assert len(view) == view.capacity
        assert not view.add(make_descriptor(99))
        assert len(view) == 3

    def test_add_refreshes_existing_with_fresher(self):
        view = PartialView(3)
        view.add(make_descriptor(1, age=5))
        view.add(make_descriptor(1, age=2))
        assert view.get(1).age == 2

    def test_add_keeps_existing_when_stale(self):
        view = PartialView(3)
        view.add(make_descriptor(1, age=2))
        view.add(make_descriptor(1, age=9))
        assert view.get(1).age == 2

    def test_remove_and_contains(self):
        view = PartialView(3)
        view.add(make_descriptor(1))
        assert 1 in view
        removed = view.remove(1)
        assert removed.node_id == 1
        assert 1 not in view
        assert view.remove(1) is None

    def test_stored_descriptors_cannot_be_corrupted(self):
        view = PartialView(3)
        original = make_descriptor(1, age=0)
        view.add(original)
        # Descriptors are immutable, so the view can store shared references without
        # any caller being able to mutate its contents from the outside.
        with pytest.raises(AttributeError):
            original.age = 99
        assert view.get(1).age == 0

    def test_clear_and_free_slots(self):
        view = PartialView(4)
        view.add(make_descriptor(1))
        assert view.capacity - len(view) == 3
        view.clear()
        assert view.is_empty


class TestAgeing:
    def test_increase_ages(self):
        view = PartialView(5)
        view.add(make_descriptor(1, age=0))
        view.add(make_descriptor(2, age=3))
        view.increase_ages()
        assert view.get(1).age == 1
        assert view.get(2).age == 4

    def test_increase_ages_is_lazy(self):
        """Ageing bumps one counter; descriptors materialise on access only."""
        view = PartialView(5)
        view.add(make_descriptor(1, age=0))
        view.increase_ages(3)
        assert view._clock == 3
        first = view.get(1)
        assert first.age == 3
        # A second read at the same clock returns the cached materialisation.
        assert view.get(1) is first

    def test_entries_added_after_ageing_keep_relative_ages(self):
        view = PartialView(5)
        view.add(make_descriptor(1, age=0))
        view.increase_ages(5)
        view.add(make_descriptor(2, age=2))
        view.increase_ages()
        assert view.get(1).age == 6
        assert view.get(2).age == 3

    def test_iteration_materialises_current_ages(self):
        view = PartialView(5)
        view.add(make_descriptor(1, age=1))
        view.add(make_descriptor(2, age=4))
        view.increase_ages(2)
        assert sorted((d.node_id, d.age) for d in view) == [(1, 3), (2, 6)]


class TestSelection:
    def test_oldest_without_rng_breaks_ties_by_id(self):
        view = PartialView(5)
        view.add(make_descriptor(1, age=4))
        view.add(make_descriptor(2, age=4))
        view.add(make_descriptor(3, age=1))
        assert view.oldest().node_id == 2

    def test_oldest_with_rng_is_uniform_over_ties(self):
        view = PartialView(5)
        for node_id in range(1, 5):
            view.add(make_descriptor(node_id, age=7))
        rng = random.Random(0)
        chosen = {view.oldest(rng).node_id for _ in range(200)}
        assert chosen == {1, 2, 3, 4}

    def test_oldest_prefers_strictly_older(self):
        view = PartialView(5)
        view.add(make_descriptor(1, age=2))
        view.add(make_descriptor(2, age=9))
        assert view.oldest(random.Random(0)).node_id == 2

    def test_oldest_empty_view(self):
        assert PartialView(3).oldest() is None

    def test_random_descriptor(self):
        view = PartialView(5)
        view.add(make_descriptor(1))
        assert view.random_descriptor(random.Random(0)).node_id == 1
        assert PartialView(3).random_descriptor(random.Random(0)) is None

    def test_random_subset_size_and_exclusion(self):
        view = PartialView(10)
        for node_id in range(10):
            view.add(make_descriptor(node_id))
        rng = random.Random(1)
        subset = view.random_subset(rng, 4, exclude_ids=(0, 1))
        assert len(subset) == 4
        assert all(d.node_id not in (0, 1) for d in subset)
        # asking for more than available returns all candidates
        everything = view.random_subset(rng, 50)
        assert len(everything) == 10

    def test_random_subset_entries_are_immutable(self):
        view = PartialView(3)
        view.add(make_descriptor(1, age=0))
        subset = view.random_subset(random.Random(0), 1)
        with pytest.raises(AttributeError):
            subset[0].age = 42
        assert view.get(1).age == 0

    def test_random_subset_carries_current_ages(self):
        view = PartialView(3)
        view.add(make_descriptor(1, age=0))
        view.increase_ages(4)
        subset = view.random_subset(random.Random(0), 1)
        assert subset[0].age == 4  # sender-relative age at send time


class TestUpdateView:
    """The swapper merge of Algorithm 2 (lines 46–58)."""

    def test_adds_when_space_available(self):
        view = PartialView(5)
        view.update_view(sent=[], received=[make_descriptor(1), make_descriptor(2)], self_id=99)
        assert len(view) == 2

    def test_skips_own_descriptor(self):
        view = PartialView(5)
        view.update_view(sent=[], received=[make_descriptor(99)], self_id=99)
        assert len(view) == 0

    def test_refreshes_existing_entries(self):
        view = PartialView(5)
        view.add(make_descriptor(1, age=8))
        view.update_view(sent=[], received=[make_descriptor(1, age=0)], self_id=99)
        assert view.get(1).age == 0

    def test_swaps_out_sent_descriptors_when_full(self):
        view = PartialView(3)
        for node_id in (1, 2, 3):
            view.add(make_descriptor(node_id))
        sent = [view.get(1)]
        view.update_view(sent=sent, received=[make_descriptor(7)], self_id=99)
        assert 7 in view
        assert 1 not in view
        assert len(view) == 3

    def test_drops_received_when_full_and_nothing_was_sent(self):
        view = PartialView(2)
        view.add(make_descriptor(1))
        view.add(make_descriptor(2))
        view.update_view(sent=[], received=[make_descriptor(3)], self_id=99)
        assert 3 not in view
        assert len(view) == 2

    def test_never_exceeds_capacity(self):
        view = PartialView(4)
        for node_id in range(4):
            view.add(make_descriptor(node_id))
        sent = view.random_subset(random.Random(0), 2)
        received = [make_descriptor(100 + i) for i in range(6)]
        view.update_view(sent=sent, received=received, self_id=99)
        assert len(view) <= 4

    def test_large_batch_swapper_eviction(self):
        """Regression test for the O(n²) ``sent_queue.pop(0)`` eviction.

        A large view merging a large received batch must evict the sent descriptors in
        FIFO order, one per admitted newcomer, with the queue drained exactly once —
        the deque-based queue keeps this linear in the batch size.
        """
        size = 5000
        view = PartialView(size)
        for node_id in range(size):
            view.add(make_descriptor(node_id))
        assert len(view) == view.capacity
        sent = [view.get(node_id) for node_id in range(size)]
        received = [make_descriptor(size + i) for i in range(size)]
        view.update_view(sent=sent, received=received, self_id=10 * size)
        assert len(view) == size
        # Every received descriptor displaced exactly one sent descriptor, in order.
        assert all(size + i in view for i in range(size))
        assert all(node_id not in view for node_id in range(size))

    def test_swapper_eviction_skips_already_evicted_sent_entries(self):
        view = PartialView(2)
        view.add(make_descriptor(1))
        view.add(make_descriptor(2))
        sent = [view.get(1), view.get(2)]
        view.remove(1)  # sent entry no longer present: the queue must skip it
        view.add(make_descriptor(3))
        view.update_view(sent=sent, received=[make_descriptor(7)], self_id=99)
        assert 7 in view and 2 not in view and 3 in view
