"""Unit tests for Croupier's public/private ratio estimator (Section VI)."""

import copy
import pickle
import random

import pytest

from repro.core.estimator import RatioEstimate, RatioEstimator
from repro.core.messages import ShuffleRequest
from repro.membership.descriptor import NodeDescriptor
from repro.net.address import Endpoint, NatType, NodeAddress
from repro.errors import ConfigurationError


class TestRatioEstimateRecord:
    def test_aged_copy(self):
        estimate = RatioEstimate(origin_id=1, value=0.2, age=0)
        older = estimate.aged()
        assert older.age == 1 and estimate.age == 0
        assert older.value == estimate.value

    def test_freshness(self):
        assert RatioEstimate(1, 0.2, age=0).is_fresher_than(RatioEstimate(1, 0.3, age=4))

    def test_wire_size_is_five_bytes(self):
        """Section VII: 5 bytes per piggy-backed estimation."""
        sender = NodeDescriptor(NodeAddress(1, Endpoint("1.0.0.1", 7000), NatType.PUBLIC))
        bare = ShuffleRequest(sender=sender)
        with_one = ShuffleRequest(sender=sender, estimates=(RatioEstimate(1, 0.2),))
        assert with_one.payload_size() - bare.payload_size() == 5
        # The size is a constant of the encoding, not a field a caller can set.
        with pytest.raises(TypeError):
            RatioEstimate(1, 0.2, 0, 99)

    def test_estimate_is_an_immutable_value(self):
        estimate = RatioEstimate(1, 0.2, age=3)
        with pytest.raises(AttributeError):
            estimate.age = 4
        with pytest.raises(AttributeError):
            del estimate.value
        assert estimate == RatioEstimate(1, 0.2, 3) != RatioEstimate(1, 0.2, 4)
        assert hash(estimate) == hash(RatioEstimate(1, 0.2, 3))
        assert copy.deepcopy(estimate) == estimate
        assert pickle.loads(pickle.dumps(estimate)) == estimate


class TestLocalEstimate:
    def test_parameters_validated(self):
        with pytest.raises(ConfigurationError):
            RatioEstimator(alpha=0, gamma=10, is_public=True)
        with pytest.raises(ConfigurationError):
            RatioEstimator(alpha=10, gamma=0, is_public=True)

    def test_no_requests_no_estimate(self):
        estimator = RatioEstimator(alpha=5, gamma=10, is_public=True)
        assert estimator.local_estimate() is None
        estimator.advance_round()
        assert estimator.local_estimate() is None

    def test_ratio_of_recorded_hits(self):
        estimator = RatioEstimator(alpha=5, gamma=10, is_public=True)
        for _ in range(2):
            estimator.record_shuffle_request(sender_is_public=True)
        for _ in range(8):
            estimator.record_shuffle_request(sender_is_public=False)
        estimator.advance_round()
        assert estimator.local_estimate() == pytest.approx(0.2)

    def test_private_node_has_no_local_estimate(self):
        estimator = RatioEstimator(alpha=5, gamma=10, is_public=False)
        estimator.record_shuffle_request(sender_is_public=True)
        estimator.advance_round()
        assert estimator.local_estimate() is None
        assert estimator.own_estimate_record(1) is None

    def test_alpha_window_bounds_history(self):
        estimator = RatioEstimator(alpha=3, gamma=10, is_public=True)
        # Three rounds of only-private hits, then three rounds of only-public hits:
        # with α=3 only the public rounds remain in the window.
        for _ in range(3):
            estimator.record_shuffle_request(False)
            estimator.advance_round()
        for _ in range(3):
            estimator.record_shuffle_request(True)
            estimator.advance_round()
        assert estimator.local_estimate() == pytest.approx(1.0)
        assert len(estimator.history_snapshot()) == 3

    def test_current_round_hits_reset_each_round(self):
        estimator = RatioEstimator(alpha=5, gamma=10, is_public=True)
        estimator.record_shuffle_request(True)
        estimator.advance_round()
        assert estimator.current_round_hits == (0, 0)

    def test_own_estimate_record_carries_value(self):
        estimator = RatioEstimator(alpha=5, gamma=10, is_public=True)
        estimator.record_shuffle_request(True)
        estimator.record_shuffle_request(False)
        estimator.advance_round()
        record = estimator.own_estimate_record(node_id=42)
        assert record.origin_id == 42
        assert record.value == pytest.approx(0.5)
        assert record.age == 0


class TestNeighbourEstimates:
    def test_merge_keeps_freshest_per_origin(self):
        estimator = RatioEstimator(alpha=5, gamma=10, is_public=False)
        estimator.merge_estimates([RatioEstimate(1, 0.3, age=4)])
        estimator.merge_estimates([RatioEstimate(1, 0.25, age=1)])
        estimator.merge_estimates([RatioEstimate(1, 0.99, age=9)])  # stale: ignored
        estimates = estimator.neighbour_estimates()
        assert len(estimates) == 1
        assert estimates[0].value == pytest.approx(0.25)

    def test_merge_ignores_none_and_too_old(self):
        estimator = RatioEstimator(alpha=5, gamma=3, is_public=False)
        merged = estimator.merge_estimates([None, RatioEstimate(1, 0.5, age=10)])
        assert merged == 0
        assert estimator.neighbour_estimate_count == 0

    def test_gamma_expiry_on_round_advance(self):
        estimator = RatioEstimator(alpha=5, gamma=2, is_public=False)
        estimator.merge_estimates([RatioEstimate(1, 0.4, age=0)])
        estimator.advance_round()
        assert estimator.neighbour_estimate_count == 1
        estimator.advance_round()
        assert estimator.neighbour_estimate_count == 1
        estimator.advance_round()  # age becomes 3 > γ=2
        assert estimator.neighbour_estimate_count == 0

    def test_cache_round_trips_through_its_snapshot_with_unchanged_ages(self):
        estimator = RatioEstimator(alpha=5, gamma=6, is_public=False)
        estimator.merge_estimates(
            [RatioEstimate(origin, origin / 10, age=origin % 4) for origin in (5, 1, 9, 3, 7)]
        )
        estimator.advance_round()
        estimator.advance_round()
        # A refresh keeps 9's place in the cache; 2 is new.
        estimator.merge_estimates([RatioEstimate(9, 0.95, age=0), RatioEstimate(2, 0.2, age=1)])
        estimator.advance_round()
        estimator.advance_round()  # 3 and 7 (ages 7 > γ) expire
        expected = [
            RatioEstimate(5, 0.5, 5),
            RatioEstimate(1, 0.1, 5),
            RatioEstimate(9, 0.95, 2),
            RatioEstimate(2, 0.2, 3),
        ]
        assert estimator.neighbour_estimates() == expected
        assert estimator.estimates_subset(random.Random(0), 10) == expected
        assert estimator.estimate_ratio() == (0.5 + 0.1 + 0.95 + 0.2) / 4
        again = RatioEstimator(alpha=5, gamma=6, is_public=False)
        assert again.merge_estimates(expected) == 4
        assert again.neighbour_estimates() == expected

    def test_estimates_subset_bounded(self):
        estimator = RatioEstimator(alpha=5, gamma=50, is_public=False)
        estimator.merge_estimates([RatioEstimate(i, 0.2, age=0) for i in range(20)])
        subset = estimator.estimates_subset(random.Random(0), 10)
        assert len(subset) == 10
        everything = estimator.estimates_subset(random.Random(0), 100)
        assert len(everything) == 20


class TestEstimateRatio:
    def test_private_node_averages_neighbours_only(self):
        """Equation 9."""
        estimator = RatioEstimator(alpha=5, gamma=50, is_public=False)
        assert estimator.estimate_ratio() is None
        estimator.merge_estimates([RatioEstimate(1, 0.1), RatioEstimate(2, 0.3)])
        assert estimator.estimate_ratio() == pytest.approx(0.2)

    def test_public_node_includes_own_estimate(self):
        """Equation 8."""
        estimator = RatioEstimator(alpha=5, gamma=50, is_public=True)
        estimator.record_shuffle_request(True)  # local estimate = 1.0
        estimator.advance_round()
        estimator.merge_estimates([RatioEstimate(1, 0.0), RatioEstimate(2, 0.5)])
        assert estimator.estimate_ratio() == pytest.approx((0.0 + 0.5 + 1.0) / 3)

    def test_public_node_without_hits_averages_neighbours(self):
        estimator = RatioEstimator(alpha=5, gamma=50, is_public=True)
        estimator.merge_estimates([RatioEstimate(1, 0.4)])
        assert estimator.estimate_ratio() == pytest.approx(0.4)

    def test_estimate_stays_in_unit_interval(self):
        estimator = RatioEstimator(alpha=5, gamma=50, is_public=True)
        rng = random.Random(0)
        for _ in range(30):
            for _ in range(rng.randint(0, 5)):
                estimator.record_shuffle_request(rng.random() < 0.3)
            estimator.merge_estimates(
                [RatioEstimate(rng.randint(1, 9), rng.random(), age=rng.randint(0, 3))]
            )
            estimator.advance_round()
            value = estimator.estimate_ratio()
            assert value is None or 0.0 <= value <= 1.0
