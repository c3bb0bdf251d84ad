"""The scenario contract, held on both engines.

:class:`~repro.workload.scenario.BaseScenario` is everything probes, workload
events and experiment kinds may ask of a scenario. :class:`ScenarioContract`
checks it through the contract alone; each engine binds it by subclassing —
:class:`TestObjectScenario` below and ``TestColumnarScenario`` in
``tests/test_columnar.py`` — so a behaviour that passes is one a cell can rely on
whichever engine runs it. The last test compares the engines directly:
population decisions draw from the same seeded streams in the same order, so
before any round runs both engines hold the same population.
"""

import pytest

from repro.errors import ExperimentError
from repro.nat.mixture import get_mixture
from repro.workload.scenario import ENGINES, BaseScenario, ScenarioConfig, create_scenario

N_PUBLIC, N_PRIVATE = 12, 48
N = N_PUBLIC + N_PRIVATE


def build(engine, protocol="croupier", seed=7, **kwargs):
    """A populated scenario of ``engine`` (the columnar one needs numpy)."""
    if engine == "columnar":
        pytest.importorskip("numpy")
    scenario = create_scenario(ScenarioConfig(
        protocol=protocol, seed=seed, latency="constant", engine=engine, **kwargs
    ))
    scenario.populate(N_PUBLIC, N_PRIVATE)
    return scenario


def drops(scenario, *reasons):
    counts = scenario.monitor.drop_reasons
    return sum(counts.get(reason, 0) for reason in reasons)


def state(scenario):
    """Everything the contract reads, as plain data."""
    return (
        scenario.now,
        scenario.live_public_ids(),
        scenario.live_private_ids(),
        {node: set(view) for node, view in scenario.overlay_graph().items()},
        scenario.ratio_estimates(),
        scenario.network.packets_sent,
        scenario.monitor.drop_reasons,
    )


class ScenarioContract:
    """The contract's checks; a subclass sets ``engine``."""

    engine = ""

    def build(self, **kwargs):
        return build(self.engine, **kwargs)

    def test_capability_api(self):
        scenario = self.build()
        assert isinstance(scenario, BaseScenario)
        assert scenario.plugin.estimates_ratio
        public, private = scenario.live_public_ids(), scenario.live_private_ids()
        assert (len(public), len(private), scenario.live_count()) == (N_PUBLIC, N_PRIVATE, N)
        assert sorted(public + private) == scenario.live_ids()
        assert scenario.true_ratio() == N_PUBLIC / N
        assert scenario.nat_class_members() == {"public": public, "restricted_cone": private}
        assert scenario.ratio_estimates() == []  # nobody has run 2 rounds yet
        scenario.run_rounds(6)
        estimates = scenario.ratio_estimates()
        assert len(estimates) == N and all(0.0 <= e <= 1.0 for e in estimates)
        graph = scenario.overlay_graph()
        assert list(graph) == scenario.live_ids()
        assert all(node not in view for node, view in graph.items())
        histogram = scenario.in_degree_histogram()
        assert sum(histogram.values()) == N
        assert sum(d * count for d, count in histogram.items()) == sum(
            len(view) for view in graph.values()
        )
        assert scenario.network.packets_sent > 0

    @pytest.mark.parametrize("protocol", ["croupier", "cyclon"])
    def test_view_age_histogram_counts_every_live_entry(self, protocol):
        """Ages over the occupied view slots of live nodes: all 0 as bootstrapped,
        then one count per slot (a static, loss-free system holds no stale entry,
        so every slot is an overlay edge) and none for a dead node's view."""
        scenario = self.build(protocol=protocol)

        def edges():
            return sum(len(view) for view in scenario.overlay_graph().values())

        assert scenario.view_age_histogram() == {0: edges()}
        scenario.run_rounds(6)
        ages = scenario.view_age_histogram()
        assert sum(ages.values()) == edges() > 0
        assert min(ages) >= 0 and max(ages) > 0
        scenario.kill_random_fraction(0.5)
        # Live views may still hold the dead: at least the live edges, fewer in all.
        assert edges() <= sum(scenario.view_age_histogram().values()) < sum(ages.values())

    def test_sample_class_counts(self):
        scenario = self.build()
        scenario.run_rounds(4)
        counts = scenario.sample_class_counts(3)
        assert list(counts) == ["public", "private"]
        assert sum(counts.values()) == 3 * N
        assert counts["private"] > counts["public"] > 0

    def test_cyclon_has_no_estimation(self):
        scenario = self.build(protocol="cyclon")
        scenario.run_rounds(4)
        assert not scenario.plugin.estimates_ratio
        assert scenario.ratio_estimates() == [] == scenario.ratio_estimates(min_rounds=0)

    def test_overhead_public_exceeds_private(self):
        """Per-class loads over a window: public nodes carry more than private
        ones, ``all`` averages every counted node, and windows add up."""
        scenario = self.build()
        scenario.run_rounds(4)
        first = scenario.traffic_snapshot()
        assert scenario.load_by_class(first) == {}  # no time has passed
        scenario.run_rounds(3)
        early = scenario.load_by_class(first)
        middle = scenario.traffic_snapshot()
        scenario.run_rounds(3)
        late, whole = scenario.load_by_class(middle), scenario.load_by_class(first)
        assert list(whole) == ["public", "private", "all"]
        assert whole["public"] > whole["private"] > 0.0
        assert whole["all"] == pytest.approx(
            (whole["public"] * N_PUBLIC + whole["private"] * N_PRIVATE) / N
        )
        for label in whole:
            assert whole[label] == pytest.approx((early[label] + late[label]) / 2)

    def test_partition_drops_and_heals(self):
        scenario = self.build()
        scenario.run_rounds(3)
        assert drops(scenario, "partitioned") == 0
        scenario.set_partition(scenario.live_ids()[::2])
        scenario.run_rounds(3)
        split = drops(scenario, "partitioned")
        assert split > 0
        scenario.set_partition(None)
        scenario.run_rounds(3)
        assert drops(scenario, "partitioned") == split

    def test_set_loss_rate_restores_previous(self):
        scenario = self.build(loss_rate=0.05)
        assert scenario.set_loss_rate(0.5) == 0.05
        before = drops(scenario, "link_loss")
        scenario.run_rounds(3)
        lossy = drops(scenario, "link_loss")
        assert lossy > before
        assert scenario.set_loss_rate(0.05) == 0.5
        assert scenario.set_loss_rate(0.0) == 0.05
        scenario.run_rounds(3)
        assert drops(scenario, "link_loss") == lossy

    def test_churn_replaces_population(self):
        scenario = self.build()
        scenario.run_rounds(3)
        assert scenario.churn_step(0.25) > 0
        assert len(scenario.live_public_ids()) == N_PUBLIC
        assert scenario.live_count() == N
        killed = scenario.kill_random_fraction(0.5)
        assert len(killed) == N // 2 and scenario.live_count() == N - N // 2
        assert not set(killed) & set(scenario.live_ids())
        with pytest.raises(ExperimentError):
            scenario.kill_random_fraction(1.5)

    def test_clone_continues_bit_identically(self):
        scenario = self.build(loss_rate=0.05)
        scenario.run_rounds(4)
        clone = scenario.clone()
        for branch in (scenario, clone):
            branch.churn_step(0.1)
            branch.run_rounds(4)
        assert state(clone) == state(scenario)


class TestObjectScenario(ScenarioContract):
    engine = "object"


def test_population_decisions_agree_across_engines():
    """Ids, classes, NAT profiles, churn and kill draws come from the scenario's
    seeded streams in one order, so they match across engines until the
    protocols run."""
    built = {}
    for engine in ENGINES:
        scenario = build(engine, seed=11, nat_mixture=get_mixture("paper"),
                         upnp_fraction=0.2)
        scenario.churn_step(0.3)
        killed = scenario.kill_random_fraction(0.2)
        built[engine] = (killed, scenario.live_public_ids(),
                         scenario.live_private_ids(), scenario.nat_class_members())
    assert built["object"] == built["columnar"]
