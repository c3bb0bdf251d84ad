"""Unit tests for the node-selection policies and the swapper merge."""

import random

from repro.membership.policies import SelectionPolicy, select_partner
from repro.membership.view import PartialView
from tests.test_descriptor_view import make_descriptor


class TestSelectPartner:
    def test_tail_selects_oldest(self):
        view = PartialView(5)
        view.add(make_descriptor(1, age=2))
        view.add(make_descriptor(2, age=7))
        chosen = select_partner(view, SelectionPolicy.TAIL, random.Random(0))
        assert chosen.node_id == 2

    def test_random_selects_any_member(self):
        view = PartialView(5)
        for node_id in range(5):
            view.add(make_descriptor(node_id))
        rng = random.Random(3)
        seen = {select_partner(view, SelectionPolicy.RANDOM, rng).node_id for _ in range(100)}
        assert seen == set(range(5))

    def test_empty_view_returns_none(self):
        assert select_partner(PartialView(3), SelectionPolicy.TAIL, random.Random(0)) is None


class TestMergePolicies:
    def test_swapper_delegates_to_update_view(self):
        """The one merge policy, swapper, is ``PartialView.update_view``: on a full
        view a received descriptor evicts one this node sent."""
        view = PartialView(2)
        view.add(make_descriptor(1))
        view.add(make_descriptor(2))
        view.update_view(sent=[view.get(1)], received=[make_descriptor(5)], self_id=99)
        assert 5 in view and 1 not in view
