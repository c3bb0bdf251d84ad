"""Unit tests for the latency and loss models."""

import hashlib
import math
import random
import statistics

import pytest

from repro.errors import ConfigurationError
from repro.net.address import Endpoint, NatType, NodeAddress
from repro.simulator.latency import ConstantLatency, KingLatencyModel, UniformLatency
from repro.simulator.loss import BernoulliLoss, NoLoss


class TestConstantLatency:
    def test_constant(self):
        model = ConstantLatency(33.0)
        assert model.latency(1, 2) == 33.0
        assert model.latency(99, 1) == 33.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(-1.0)


class TestUniformLatency:
    def test_within_bounds_and_deterministic(self):
        model = UniformLatency(10.0, 20.0, seed=3)
        values = [model.latency(a, b) for a in range(5) for b in range(5)]
        assert all(10.0 <= v <= 20.0 for v in values)
        again = UniformLatency(10.0, 20.0, seed=3)
        assert [again.latency(a, b) for a in range(5) for b in range(5)] == values

    def test_symmetric(self):
        model = UniformLatency(10.0, 20.0, seed=3)
        assert model.latency(3, 9) == model.latency(9, 3)

    def test_rejects_bad_range(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(50.0, 10.0)


class TestKingLatencyModel:
    def test_deterministic_and_symmetric(self):
        model = KingLatencyModel(seed=11)
        assert model.latency(5, 9) == model.latency(9, 5)
        other = KingLatencyModel(seed=11)
        assert other.latency(5, 9) == pytest.approx(model.latency(5, 9))

    def test_positive_and_above_base(self):
        model = KingLatencyModel(seed=2)
        for a in range(10):
            for b in range(a + 1, 10):
                assert model.latency(a, b) >= KingLatencyModel.BASE_DELAY_MS

    def test_distribution_shape(self):
        """Median of tens of milliseconds and a long right tail, like the King data."""
        model = KingLatencyModel(seed=5)
        samples = [model.latency(a, b) for a in range(40) for b in range(a + 1, 40)]
        median = statistics.median(samples)
        assert 30.0 <= median <= 200.0
        assert max(samples) > median * 1.5

    def test_cache_returns_same_object_value(self):
        model = KingLatencyModel(seed=5)
        first = model.latency(1, 2)
        assert model.latency(1, 2) == first

    def test_values_are_pinned_bit_for_bit(self):
        """Every float of an id grid, both orders and self-pairs included, as the
        model gave them when it still memoised each pair it priced."""
        model = KingLatencyModel(seed=3)
        ids = [*range(30), 977, 65535, 10**6]
        rendered = " ".join(model.latency(a, b).hex() for a in ids for b in ids)
        assert hashlib.sha256(rendered.encode()).hexdigest() == (
            "c601263fb2a1b9c79478983c3b394ff9490e5b243c06b6c100961af654f1df59"
        )

    def test_holds_one_record_per_node_not_per_pair(self):
        model = KingLatencyModel(seed=5)
        n = 60
        for a in range(n):
            for b in range(n):
                model.latency(a, b)
        held = sum(
            len(value) for value in vars(model).values() if isinstance(value, (dict, list, set))
        )
        assert held == n

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 29: the access delay's decorrelating draw skips one "
        "uniform, but the coordinates take two, so the delay starts from y's draw",
    )
    def test_access_delay_is_independent_of_the_coordinates(self):
        model = KingLatencyModel(seed=0)
        records = [model._record(node_id) for node_id in range(1, 3001)]
        log_access = [math.log(access) for _, _, access in records]
        for axis in (0, 1):
            coords = [record[axis] for record in records]
            assert abs(_pearson(coords, log_access)) < 0.1, axis


def _pearson(xs, ys) -> float:
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    return cov / math.sqrt(var_x * var_y)


def _addr(public: bool) -> NodeAddress:
    if public:
        return NodeAddress(1, Endpoint("1.0.0.1", 7000), NatType.PUBLIC)
    return NodeAddress(
        2, Endpoint("2.0.0.1", 7000), NatType.PRIVATE, private_endpoint=Endpoint("10.0.0.1", 7000)
    )


class TestLossModels:
    def test_no_loss_never_drops(self):
        rng = random.Random(0)
        model = NoLoss()
        assert not any(model.should_drop(rng, _addr(True), "1.0.0.2") for _ in range(100))

    def test_bernoulli_zero_and_one(self):
        rng = random.Random(0)
        assert not any(BernoulliLoss(0.0).should_drop(rng, None, "1.0.0.2") for _ in range(50))
        assert all(BernoulliLoss(1.0).should_drop(rng, None, "1.0.0.2") for _ in range(50))

    def test_bernoulli_rate_roughly_respected(self):
        rng = random.Random(42)
        model = BernoulliLoss(0.3)
        drops = sum(model.should_drop(rng, None, "1.0.0.2") for _ in range(5000))
        assert 0.25 < drops / 5000 < 0.35

    def test_bernoulli_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            BernoulliLoss(1.5)
