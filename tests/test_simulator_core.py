"""Unit tests for the discrete-event kernel."""

import copy
import random
from array import array

import pytest

from repro.errors import SimulationError
from repro.simulator.core import (
    RandomStream,
    Simulator,
    choice,
    sample,
    sample_prefixes,
    shuffle,
)


def _pending(sim):
    """Events still to fire: queued and neither cancelled nor run."""
    return sum(1 for _, _, handle in sim._queue if handle.callback is not None)


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self, sim):
        order = []
        for label in "abcd":
            sim.schedule(5, lambda label=label: order.append(label))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(42.5, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(42.5)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_cancel_prevents_execution(self, sim):
        fired = []
        handle = sim.schedule(10, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_events_scheduled_from_callbacks(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(5, lambda: order.append("nested"))

        sim.schedule(10, first)
        sim.schedule(20, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "nested", "second"]
        assert sim.now == pytest.approx(20)


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(10, lambda: fired.append("early"))
        sim.schedule(100, lambda: fired.append("late"))
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == pytest.approx(50)
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_executes_events_at_horizon(self, sim):
        fired = []
        sim.schedule(50, lambda: fired.append(1))
        sim.run(until=50)
        assert fired == [1]

    def test_run_for_is_relative(self, sim):
        sim.schedule(10, lambda: None)
        sim.run_for(30)
        assert sim.now == pytest.approx(30)
        sim.run_for(30)
        assert sim.now == pytest.approx(60)

    def test_max_events_limits_execution(self, sim):
        fired = []
        for index in range(10):
            sim.schedule(index + 1, lambda index=index: fired.append(index))
        executed = sim.run(max_events=3)
        assert executed == 3
        assert fired == [0, 1, 2]

    def test_step_on_empty_queue(self, sim):
        assert sim.run(max_events=1) == 0

    def test_pending_and_executed_counters(self, sim):
        sim.schedule(1, lambda: None)
        handle = sim.schedule(2, lambda: None)
        handle.cancel()
        assert _pending(sim) == 1
        sim.run()
        assert sim.events_executed == 1

    def test_events_executed_counts_only_live_callbacks(self, sim):
        """Cancelled events are skipped (exactly once per heap pop) and never counted."""
        fired = []
        handles = [
            sim.schedule(index + 1, lambda index=index: fired.append(index))
            for index in range(10)
        ]
        for handle in handles[::2]:
            handle.cancel()
        executed = sim.run()
        assert executed == 5
        assert sim.events_executed == 5
        assert fired == [1, 3, 5, 7, 9]
        assert _pending(sim) == 0

    def test_pending_events_counter_tracks_cancel_and_execution(self, sim):
        handles = [sim.schedule(i + 1, lambda: None) for i in range(4)]
        assert _pending(sim) == 4
        handles[0].cancel()
        handles[0].cancel()  # idempotent: must not double-decrement
        assert _pending(sim) == 3
        sim.run(until=2)
        assert _pending(sim) == 2
        # Cancelling an already-executed handle must not corrupt the counter.
        handles[1].cancel()
        assert _pending(sim) == 2
        sim.run()
        assert _pending(sim) == 0
        assert sim.events_executed == 3

    def test_schedule_with_argument_slot(self, sim):
        """The (callback, arg) slot delivers the argument without a closure."""
        received = []
        sim.schedule(5, received.append, "packet")
        sim.schedule(6, received.append, None)  # None is a legitimate argument
        sim.run()
        assert received == ["packet", None]

    def test_max_events_does_not_count_cancelled_events(self, sim):
        fired = []
        keep = sim.schedule(1, lambda: fired.append("keep"))
        for i in range(5):
            sim.schedule(2 + i, lambda: fired.append("cancelled")).cancel()
        sim.schedule(10, lambda: fired.append("late"))
        executed = sim.run(max_events=2)
        assert executed == 2
        assert fired == ["keep", "late"]
        assert keep.callback is None


class TestRngDerivation:
    def test_same_labels_same_stream(self):
        a = Simulator(seed=7).derive_rng("croupier", 12)
        b = Simulator(seed=7).derive_rng("croupier", 12)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_different_streams(self):
        sim = Simulator(seed=7)
        a = sim.derive_rng("croupier", 12)
        b = sim.derive_rng("croupier", 13)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seed_different_streams(self):
        a = Simulator(seed=7).derive_rng("x")
        b = Simulator(seed=8).derive_rng("x")
        assert a.random() != b.random()


class TestSampler:
    """``sample`` / ``choice`` / ``shuffle`` draw what ``random.Random.sample`` /
    ``choice`` / ``shuffle`` draw."""

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_sample_matches_random_sample_for_every_size(self, seed):
        # n up to 130 covers the pool and the set branch on both sides of every
        # setsize step k = 10 meets (21, then 85 once k > 5).
        for n in range(1, 131):
            population = [f"item{i}" for i in range(n)]
            ours = random.Random(seed + n)
            theirs = random.Random(seed + n)
            for k in range(n + 1):
                assert sample(ours, population, k) == theirs.sample(population, k), (n, k)
                assert ours.getstate() == theirs.getstate(), (n, k)
            assert population == [f"item{i}" for i in range(n)]

    def test_a_random_stream_draws_inline_and_deep_copies_by_state(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a RandomStream took the generic path")

        for name in ("sample", "choice", "shuffle"):
            monkeypatch.setattr(RandomStream, name, refuse)
        ours, theirs = RandomStream(11), random.Random(11)
        population = list(range(50))
        assert sample(ours, population, 7) == theirs.sample(population, 7)
        assert choice(ours, population) == theirs.choice(population)
        mine, yours = list(population), list(population)
        shuffle(ours, mine)
        theirs.shuffle(yours)
        assert mine == yours and ours.getstate() == theirs.getstate()
        copied = copy.deepcopy(ours)
        assert type(copied) is RandomStream and copied is not ours
        assert [copied.random() for _ in range(5)] == [ours.random() for _ in range(5)]

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    @pytest.mark.parametrize("k", [1, 5, 6, 10, 40])
    def test_sample_prefixes_matches_a_loop_of_random_sample(self, seed, k):
        # Sizes rising through both branches (and every setsize step k meets,
        # since min(k, n) changes on the way), then falling and repeating.
        sizes = list(range(131)) + [300, 86, 85, 84, 3, 0, 1000, 1000, 22, 21]
        population = [3 * i + 1 for i in range(1000)]
        reference = random.Random(seed)
        expected = [
            element
            for n in sizes
            for element in reference.sample(population[:n], min(k, n))
        ]
        for out in ([], array("i")):
            ours = random.Random(seed)
            assert sample_prefixes(ours, population, sizes, k, out) is None
            assert list(out) == expected
            assert ours.getstate() == reference.getstate()
        assert population == [3 * i + 1 for i in range(1000)]

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_choice_matches_random_choice(self, seed):
        ours = random.Random(seed)
        theirs = random.Random(seed)
        for n in range(1, 131):
            sequence = list(range(n))
            assert choice(ours, sequence) == theirs.choice(sequence), n
            assert ours.getstate() == theirs.getstate(), n

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_shuffle_matches_random_shuffle(self, seed):
        for n in range(65):
            ours = random.Random(seed + n)
            theirs = random.Random(seed + n)
            mine, reference = [f"item{i}" for i in range(n)], [f"item{i}" for i in range(n)]
            assert shuffle(ours, mine) is None
            theirs.shuffle(reference)
            assert mine == reference, n
            assert ours.getstate() == theirs.getstate(), n

    def test_errors_match(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            sample(rng, [1, 2], 3)
        with pytest.raises(ValueError):
            sample(rng, [1, 2], -1)
        with pytest.raises(IndexError):
            choice(rng, [])

    def test_a_subclass_takes_its_own_methods(self):
        calls = []

        class Recording(random.Random):
            def sample(self, population, k, **kwargs):
                calls.append(("sample", k))
                return super().sample(population, k, **kwargs)

            def choice(self, seq):
                calls.append(("choice", len(seq)))
                return super().choice(seq)

            def shuffle(self, x):
                calls.append(("shuffle", len(x)))
                super().shuffle(x)

        rng = Recording(3)
        assert sample(rng, list(range(10)), 4) == random.Random(3).sample(range(10), 4)
        drawn = []
        sample_prefixes(rng, "abcdefghij", [10, 2], 4, drawn)
        twin = random.Random(3)
        twin.sample(range(10), 4)
        assert drawn == twin.sample("abcdefghij", 4) + twin.sample("ab", 2)
        choice(rng, [1, 2, 3])
        shuffle(rng, [1, 2, 3, 4, 5])
        assert calls == [
            ("sample", 4), ("sample", 4), ("sample", 2), ("choice", 3), ("shuffle", 5)
        ]
