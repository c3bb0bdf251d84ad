"""Tests for the scenario builder and the workload processes."""

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.simulator.loss import BernoulliLoss
from repro.workload.churn import ChurnProcess
from repro.workload.events import LossBurst
from repro.workload.failure import catastrophic_failure
from repro.workload.ipalloc import IpAllocator
from repro.workload.join import PoissonJoinProcess
from repro.workload.ratio import RatioGrowthProcess
from repro.workload.scenario import Scenario, ScenarioConfig


class TestIpAllocator:
    def test_categories_are_disjoint_prefixes(self):
        alloc = IpAllocator()
        assert alloc.public_ip().startswith("1.")
        assert alloc.nat_external_ip().startswith("2.")
        assert alloc.private_ip().startswith("10.")

    def test_uniqueness(self):
        alloc = IpAllocator()
        ips = {alloc.public_ip() for _ in range(1000)}
        assert len(ips) == 1000


class TestScenarioConfig:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(protocol="chord").validate()

    def test_loss_rate_validated(self):
        """A standing loss is no config field: the loss model and the ``LossBurst``
        event that set one range-check it."""
        with pytest.raises(ConfigurationError):
            BernoulliLoss(1.5)
        with pytest.raises(ExperimentError):
            LossBurst(start_round=0.0, stop_round=5.0, loss_rate=1.5).validate()

    def test_unknown_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(ScenarioConfig(latency="warp"))
        # The columnar engine never reads the latency, so only validate() sees it.
        with pytest.raises(ConfigurationError, match="unknown latency model 'warp'"):
            ScenarioConfig(latency="warp", engine="columnar").validate()


class TestScenarioBasics:
    def test_populate_counts_and_ratio(self):
        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        scenario.populate(n_public=10, n_private=40)
        assert scenario.live_count() == 50
        assert len(scenario.live_public_ids()) == 10
        assert len(scenario.live_private_ids()) == 40
        assert scenario.true_ratio() == pytest.approx(0.2)

    def test_registry_contains_only_public_nodes(self):
        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        scenario.populate(n_public=5, n_private=5)
        assert len(scenario.registry) == 5

    def test_private_nodes_sit_behind_nats(self):
        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        scenario.populate(n_public=2, n_private=3)
        private_handles = [h for h in scenario.live_handles() if not h.is_public]
        assert all(h.natbox is not None for h in private_handles)
        assert all(h.host.natbox is not None for h in private_handles)

    def test_initial_views_seeded_from_registry(self):
        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        scenario.populate(n_public=5, n_private=5)
        late = scenario.add_node(public=False)
        assert len(scenario.pss_of(late).neighbor_addresses()) > 0

    def test_run_rounds_advances_time(self):
        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        scenario.populate(2, 2)
        scenario.run_rounds(3)
        assert scenario.now == pytest.approx(3 * scenario.round_ms)

    def test_kill_and_unregister(self):
        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        scenario.populate(n_public=3, n_private=3)
        victim = scenario.live_public_ids()[0]
        scenario.kill(victim)
        assert victim not in scenario.registry._public_nodes
        assert scenario.live_count() == 5
        scenario.kill(victim)  # idempotent

    def test_kill_random_fraction(self):
        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        scenario.populate(n_public=10, n_private=10)
        killed = scenario.kill_random_fraction(0.5)
        assert len(killed) == 10
        assert scenario.live_count() == 10
        with pytest.raises(ExperimentError):
            scenario.kill_random_fraction(1.5)

    def test_churn_step_preserves_population_and_ratio(self):
        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        scenario.populate(n_public=10, n_private=40)
        replaced = scenario.churn_step(0.2)
        assert replaced > 0
        assert scenario.live_count() == 50
        assert scenario.true_ratio() == pytest.approx(0.2)

    def test_overlay_graph_only_contains_live_nodes(self):
        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        scenario.populate(n_public=5, n_private=10)
        scenario.run_rounds(10)
        victims = scenario.kill_random_fraction(0.4)
        graph = scenario.overlay_graph()
        assert all(victim not in graph for victim in victims)
        assert all(
            neighbour not in victims for edges in graph.values() for neighbour in edges
        )

    def test_ratio_estimates_exclude_young_nodes(self):
        from repro.metrics.probes import collect_ratio_estimates

        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        scenario.populate(n_public=4, n_private=8)
        assert collect_ratio_estimates(scenario, min_rounds=2) == []
        scenario.run_rounds(5)
        assert len(collect_ratio_estimates(scenario, min_rounds=2)) == 12

    def test_pss_of_unknown_node_raises(self):
        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        with pytest.raises(ExperimentError):
            scenario.pss_of(12345)

    def test_upnp_fraction_creates_public_behaving_nated_nodes(self):
        scenario = Scenario(
            ScenarioConfig(seed=3, latency="constant", upnp_fraction=1.0)
        )
        scenario.populate(n_public=2, n_private=6)
        # All "private" nodes have UPnP gateways, so everyone counts as public.
        assert scenario.true_ratio() == pytest.approx(1.0)
        scenario.run_rounds(10)
        # And they actually receive shuffle requests (they are reachable).
        nated = [h for h in scenario.live_handles() if h.natbox is not None]
        assert any(h.pss.stats.shuffle_requests_handled > 0 for h in nated)

    def test_identify_nat_types_matches_ground_truth(self):
        scenario = Scenario(
            ScenarioConfig(seed=2, latency="constant", identify_nat_types=True)
        )
        # Public nodes join one at a time with enough spacing for each identification
        # run (timeout 4 s) to finish before the next join; private nodes can join in a
        # burst because their verdict never depends on other pending identifications.
        for _ in range(5):
            scenario.add_node(public=True)
            scenario.run_ms(5_000.0)
        for _ in range(10):
            scenario.add_node(public=False)
        scenario.run_rounds(12)
        handles = scenario.live_handles()
        assert len(handles) == 15
        identified_public = sum(1 for h in handles if h.address.is_public)
        identified_private = sum(1 for h in handles if h.address.is_private)
        assert identified_public == 5
        assert identified_private == 10
        # The system still works: estimates exist and are sane.
        from repro.metrics.probes import collect_ratio_estimates

        estimates = [e for e in collect_ratio_estimates(scenario) if e is not None]
        assert estimates and all(0.0 <= e <= 1.0 for e in estimates)


class TestJoinProcesses:
    def test_poisson_join_creates_expected_population(self):
        scenario = Scenario(ScenarioConfig(seed=4, latency="constant"))
        public = PoissonJoinProcess(
            scenario, public=True, count=20, mean_interarrival_ms=10.0
        )
        private = PoissonJoinProcess(
            scenario, public=False, count=30, mean_interarrival_ms=5.0
        )
        scenario.run_ms(10_000.0)
        assert (public.joined, private.joined) == (public.count, private.count)
        assert len(scenario.live_public_ids()) == 20
        assert scenario.live_count() == 50

    def test_join_validation(self):
        scenario = Scenario(ScenarioConfig(seed=4, latency="constant"))
        with pytest.raises(ExperimentError):
            PoissonJoinProcess(scenario, public=True, count=-1, mean_interarrival_ms=10.0)
        with pytest.raises(ExperimentError):
            PoissonJoinProcess(scenario, public=True, count=1, mean_interarrival_ms=0.0)


class TestChurnProcess:
    def test_churn_replaces_nodes_each_round(self):
        scenario = Scenario(ScenarioConfig(seed=5, latency="constant"))
        scenario.populate(n_public=10, n_private=40)
        process = ChurnProcess(scenario, fraction_per_round=0.1, start_ms=0.0)
        scenario.run_rounds(10)
        assert process.total_replaced > 10
        assert scenario.live_count() == 50

    def test_churn_stops_at_stop_ms(self):
        scenario = Scenario(ScenarioConfig(seed=5, latency="constant"))
        scenario.populate(n_public=10, n_private=10)
        process = ChurnProcess(
            scenario, fraction_per_round=0.5, start_ms=0.0, stop_ms=3_000.0
        )
        scenario.run_rounds(10)
        replaced_at_stop = process.total_replaced
        scenario.run_rounds(5)
        assert process.total_replaced == replaced_at_stop

    def test_churn_validation(self):
        scenario = Scenario(ScenarioConfig(seed=5, latency="constant"))
        with pytest.raises(ExperimentError):
            ChurnProcess(scenario, fraction_per_round=2.0)

    def test_replacement_rate_conversion(self):
        scenario = Scenario(ScenarioConfig(seed=5, latency="constant"))
        process = ChurnProcess(scenario, fraction_per_round=0.01)
        assert process.replacement_rate_per_second == pytest.approx(0.01)


class TestRatioGrowth:
    def test_growth_adds_public_nodes(self):
        scenario = Scenario(ScenarioConfig(seed=6, latency="constant"))
        scenario.populate(n_public=5, n_private=15)
        before = scenario.true_ratio()
        process = RatioGrowthProcess(scenario, start_ms=1_000.0, interval_ms=100.0, count=10)
        scenario.run_ms(3_000.0)
        assert process.added == process.count
        assert scenario.true_ratio() > before
        assert len(scenario.live_public_ids()) == 15

    def test_growth_validation(self):
        scenario = Scenario(ScenarioConfig(seed=6, latency="constant"))
        with pytest.raises(ExperimentError):
            RatioGrowthProcess(scenario, start_ms=0.0, interval_ms=0.0, count=5)

    def test_end_ms(self):
        scenario = Scenario(ScenarioConfig(seed=6, latency="constant"))
        process = RatioGrowthProcess(scenario, start_ms=100.0, interval_ms=50.0, count=3)
        assert process.end_ms == pytest.approx(200.0)


class TestCatastrophicFailure:
    def test_failure_outcome_fields(self):
        scenario = Scenario(ScenarioConfig(seed=7, latency="constant"))
        scenario.populate(n_public=10, n_private=30)
        scenario.run_rounds(15)
        outcome = catastrophic_failure(scenario, 0.5)
        assert outcome.survivors == 20
        assert len(outcome.killed_node_ids) == 20
        assert 0.0 <= outcome.biggest_cluster_fraction <= 1.0

    def test_failure_validation(self):
        scenario = Scenario(ScenarioConfig(seed=7, latency="constant"))
        scenario.populate(2, 2)
        with pytest.raises(ExperimentError):
            catastrophic_failure(scenario, 1.5)

    def test_settle_rounds_runs_protocol_after_failure(self):
        scenario = Scenario(ScenarioConfig(seed=7, latency="constant"))
        scenario.populate(n_public=6, n_private=12)
        scenario.run_rounds(10)
        outcome = catastrophic_failure(scenario, 0.3, settle_rounds=3)
        assert outcome.survivors == scenario.live_count()
        assert scenario.now >= 13 * scenario.round_ms
