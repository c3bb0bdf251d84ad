"""Tests for the protocol plugin API: the NAT strategy each registered protocol
declares, typed metric payloads (JSON round trip, matrix parity with histograms), the
deployment axes, the strategy-gated scenario kinds and the aggregate diff gate."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.matrix import (
    CellSpec,
    MatrixSpec,
    run_cell,
)
from repro.experiments.report import diff_aggregates
from repro.experiments.runner import aggregate_json_bytes, run_matrix
from repro.membership.base import NatStrategy, PeerSamplingService
from repro.membership.plugin import (
    ProtocolPlugin,
    all_plugins,
    get_plugin,
    protocol_names,
    register_protocol,
    unregister_protocol,
)
from repro.metrics.payload import MetricPayload, histogram_statistics, merge_histograms
from repro.metrics.probes import collect_ratio_estimates
from repro.nat.mixture import NAT_MIXTURES
from repro.nat.types import NatProfile
from repro.workload.scenario import Scenario, ScenarioConfig

ALL_PROTOCOLS = ("croupier", "cyclon", "gozar", "nylon")

#: The paper's taxonomy: how each compared protocol reaches private peers.
EXPECTED_STRATEGIES = {
    "croupier": NatStrategy.CROUPIER,
    "cyclon": NatStrategy.NONE,
    "gozar": NatStrategy.RELAY,
    "nylon": NatStrategy.HOLE_PUNCH,
}


class TestPluginRegistry:
    def test_every_paper_protocol_registered(self):
        assert set(ALL_PROTOCOLS) <= set(protocol_names())

    def test_strategy_table(self):
        assert {p.name: p.nat_strategy for p in all_plugins()
                if p.name in ALL_PROTOCOLS} == EXPECTED_STRATEGIES
        assert [p.name for p in all_plugins() if p.estimates_ratio] == ["croupier"]
        assert [s.value for s in NatStrategy] == [
            "none", "relay", "hole-punching", "croupier-indirection",
        ]

    def test_unknown_protocol_raises(self):
        with pytest.raises(ConfigurationError):
            get_plugin("chord")

    def test_duplicate_registration_rejected(self):
        plugin = get_plugin("croupier")
        with pytest.raises(ConfigurationError):
            register_protocol("croupier", plugin.factory, plugin.config_cls)

    def test_register_and_unregister_custom_plugin(self):
        cyclon = get_plugin("cyclon")
        register_protocol("cyclon-variant", cyclon.factory, cyclon.config_cls,
                          description="test-only alias")
        try:
            assert get_plugin("cyclon-variant").nat_strategy is NatStrategy.NONE
        finally:
            unregister_protocol("cyclon-variant")
        assert "cyclon-variant" not in protocol_names()

    def test_factory_must_be_an_overlay_sampling_class(self):
        """The factory is a PeerSamplingService subclass: the class the strategy
        is read from."""
        cyclon = get_plugin("cyclon")

        class NotASampler:
            nat_strategy = NatStrategy.RELAY

        for name, factory in (
            ("lambda-factory", lambda host, config: cyclon.factory(host, config)),
            ("not-a-sampler", NotASampler),
        ):
            with pytest.raises(ConfigurationError, match=name):
                register_protocol(name, factory, cyclon.config_cls)
            assert name not in protocol_names()


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestCapabilityConformance:
    def test_advertised_capabilities_match_component(self, protocol, hosts):
        """What the plugin advertises is what the component it builds declares."""
        plugin = get_plugin(protocol)
        component = plugin.create(hosts.public_host())
        assert isinstance(component, PeerSamplingService)
        assert component.nat_strategy is plugin.nat_strategy
        assert plugin.nat_strategy is EXPECTED_STRATEGIES[protocol]

    def test_default_config_is_typed_and_valid(self, protocol):
        plugin = get_plugin(protocol)
        config = plugin.default_config()
        assert isinstance(config, plugin.config_cls)
        config.validate()

    def test_nat_aware_components_name_their_strategy(self, protocol):
        """A protocol that overrides the direct-send ``_route`` (Gozar, Nylon) or
        shuffles only with public nodes (Croupier) declares a strategy other than
        NONE in its own class body; the NAT-oblivious one inherits NONE."""
        factory = get_plugin(protocol).factory
        declared = vars(factory).get("nat_strategy")
        if EXPECTED_STRATEGIES[protocol] is NatStrategy.NONE:
            assert declared is None and "_route" not in vars(factory)
        else:
            assert declared is EXPECTED_STRATEGIES[protocol]

    def test_sample_uniformity_smoke(self, protocol):
        """Samples drawn through every live service cover a healthy spread of live
        nodes — a smoke test of the PSS contract, not a statistical proof."""
        scenario = Scenario(ScenarioConfig(protocol=protocol, seed=9, latency="constant"))
        if scenario.plugin.nat_strategy is NatStrategy.NONE:
            scenario.populate(n_public=30, n_private=0)
        else:
            scenario.populate(n_public=8, n_private=22)
        scenario.run_rounds(15)
        live_ids = {h.node_id for h in scenario.live_handles()}
        samplers = [h.pss for h in scenario.live_handles()]
        assert len(samplers) == len(live_ids)
        sampled_ids = set()
        for service in samplers[:10]:
            for address in service.sample_many(20):
                assert address.node_id in live_ids
                sampled_ids.add(address.node_id)
        # 10 samplers x 20 draws over 30 nodes: a working PSS reaches well beyond
        # its own view size.
        assert len(sampled_ids) >= 10


class TestDeprecatedShimsRemoved:
    """The transition shims are gone: the plugin and the scenario contract
    (``BaseScenario``, whose ``ratio_estimates()`` serves every protocol) are
    the only protocol access path."""

    def test_pre_plugin_accessors_are_gone(self):
        scenario = Scenario(ScenarioConfig(protocol="croupier", seed=2, latency="constant"))
        for removed in ("croupiers", "croupier_instances",
                        "supports", "require", "services_with"):
            assert not hasattr(scenario, removed)

    def test_protocols_dict_snapshot_is_gone(self):
        import repro.workload.scenario as scenario_module

        assert not hasattr(scenario_module, "PROTOCOLS")

    def test_collect_ratio_estimates_matches_capability_api(self):
        scenario = Scenario(ScenarioConfig(protocol="croupier", seed=2, latency="constant"))
        scenario.populate(n_public=4, n_private=8)
        scenario.run_rounds(5)
        estimates = collect_ratio_estimates(scenario, min_rounds=2)
        assert len(estimates) == 12
        assert estimates == [
            handle.pss.estimated_ratio()
            for handle in scenario.live_handles()
            if handle.pss.current_round >= 2
        ]

    def test_collect_ratio_estimates_is_non_raising(self):
        scenario = Scenario(ScenarioConfig(protocol="cyclon", seed=2, latency="constant"))
        scenario.populate(n_public=6, n_private=0)
        scenario.run_rounds(4)
        assert collect_ratio_estimates(scenario) == []


class TestMetricPayload:
    def payload(self) -> MetricPayload:
        payload = MetricPayload()
        payload.set_scalar("live_nodes", 50)
        payload.set_scalar("est_err_avg_final", 0.0123)
        payload.set_histogram("in_degree", {0: 3, 2: 10, 7: 1})
        payload.set_series("est_err_avg", [(1000.0, 0.5), (2000.0, 0.25)])
        return payload

    def test_json_round_trip_is_exact(self):
        payload = self.payload()
        through_json = json.loads(json.dumps(payload.to_json_dict(), sort_keys=True))
        restored = MetricPayload.from_json_dict(through_json)
        assert restored == payload
        # Histogram bins come back as ints, series points as float tuples.
        assert all(isinstance(b, int) for b in restored.histograms["in_degree"])
        assert restored.series["est_err_avg"][0] == (1000.0, 0.5)

    def test_merge_rejects_duplicate_names(self):
        with pytest.raises(ExperimentError):
            other = MetricPayload()
            other.set_scalar("live_nodes", 1)
            self.payload().merge(other)

    def test_merge_histograms_and_statistics(self):
        merged = merge_histograms([{0: 1, 2: 3}, {2: 2, 5: 1}])
        assert merged == {0: 1, 2: 5, 5: 1}
        stats = histogram_statistics(merged)
        assert stats["count"] == 7
        assert stats["max"] == 5.0
        assert stats["mean"] == pytest.approx((0 * 1 + 2 * 5 + 5 * 1) / 7)


class TestPayloadMatrix:
    def randomness_spec(self, workers_protocols=ALL_PROTOCOLS, seeds=2) -> MatrixSpec:
        return MatrixSpec(
            scenarios=("randomness",),
            protocols=workers_protocols,
            sizes=(40,),
            seeds=seeds,
            rounds=6,
            latency="constant",
            root_seed=11,
        )

    def test_every_protocol_produces_histogram_payloads(self):
        run = run_matrix(self.randomness_spec(seeds=1), workers=1)
        assert not run.failed
        for result in run.results:
            assert "in_degree" in result.payload.histograms
            assert "path_length" in result.payload.series
            assert result.metrics["live_nodes"] == 40.0
        by_protocol = {r.cell.protocol: r.payload for r in run.results}
        # Strategy-gated probes: only Croupier cells carry estimation metrics.
        assert "est_mean" in by_protocol["croupier"].scalars
        for protocol in ("cyclon", "gozar", "nylon"):
            assert "est_mean" not in by_protocol[protocol].scalars

    def test_parallel_aggregate_bytes_identical_with_histograms(self):
        spec = self.randomness_spec()
        sequential = run_matrix(spec, workers=1)
        parallel = run_matrix(spec, workers=4)
        assert not sequential.failed and not parallel.failed
        assert aggregate_json_bytes(sequential) == aggregate_json_bytes(parallel)
        aggregate = sequential.aggregate
        assert aggregate["schema"] == "repro-matrix-aggregate-v2"
        # Group histograms merged the two seeds bin-wise.
        group = next(iter(aggregate["group_histograms"].values()))
        merged_total = sum(group["in_degree"].values())
        assert merged_total == 2 * 40  # every node of both seeds has an in-degree

    def test_history_kind_is_capability_gated(self):
        croupier_cell = CellSpec(
            scenario="history", protocol="croupier", size=30, seed_index=0, rounds=4,
            params=(("alpha", 10), ("gamma", 25)),
        )
        payload = run_cell(croupier_cell, root_seed=3, latency="constant")
        assert "est_err_avg_final" in payload.scalars
        cyclon_cell = CellSpec(
            scenario="history", protocol="cyclon", size=30, seed_index=0, rounds=4,
        )
        with pytest.raises(ExperimentError) as excinfo:
            run_cell(cyclon_cell, root_seed=3, latency="constant")
        assert "'cyclon'" in str(excinfo.value)
        assert "nat_strategy 'none'" in str(excinfo.value)


class TestDeploymentAxes:
    def test_default_axes_leave_cell_keys_unchanged(self):
        cell = CellSpec(scenario="static", protocol="croupier", size=50, seed_index=0,
                        rounds=6)
        assert "nat_mixture" not in cell.key and "upnp_fraction" not in cell.key
        swept = CellSpec(scenario="static", protocol="croupier", size=50, seed_index=0,
                         rounds=6, nat_mixture="paper", upnp_fraction=0.05)
        assert "nat_mixture=paper" in swept.key
        assert "upnp_fraction=0.05" in swept.key

    def test_axes_expand_the_grid(self):
        spec = MatrixSpec(
            scenarios=("static",), protocols=("croupier",), sizes=(30,), seeds=1,
            rounds=3, latency="constant",
            nat_mixtures=sorted(NAT_MIXTURES), upnp_fractions=(0.0, 0.05),
        )
        cells = spec.validate()
        assert len(cells) == len(NAT_MIXTURES) * 2
        assert {c.nat_mixture for c in cells} == set(NAT_MIXTURES)
        # Only axes off their defaults enter the spec section.
        assert "nat_mixtures" in spec.spec_json_dict()
        assert "upnp_fractions" not in MatrixSpec().spec_json_dict()

    def test_axis_values_reach_the_scenario(self):
        from repro.experiments.matrix import CellContext

        cell = CellSpec(scenario="static", protocol="croupier", size=20, seed_index=0,
                        rounds=2)
        config = CellContext(cell=cell, seed=1, latency="constant").scenario_config()
        assert config.nat_mixture is None
        scenario = Scenario(config)
        scenario.populate(n_public=2, n_private=6)
        assert set(scenario.nat_class_members()) == {"public", "restricted_cone"}
        assert {handle.natbox.profile for handle in scenario.live_handles()
                if handle.natbox is not None} == {NatProfile.restricted_cone()}


class TestAggregateDiff:
    def aggregate(self) -> dict:
        run = run_matrix(
            MatrixSpec(scenarios=("static",), protocols=("croupier",), sizes=(30,),
                       seeds=1, rounds=4, latency="constant", root_seed=5),
            workers=1,
        )
        return json.loads(aggregate_json_bytes(run).decode("utf-8"))

    def test_self_diff_has_no_regressions(self):
        aggregate = self.aggregate()
        diff = diff_aggregates(aggregate, aggregate)
        assert not diff.changes and not diff.has_regressions

    def test_error_increase_is_a_regression(self):
        old = self.aggregate()
        new = json.loads(json.dumps(old))
        for group in new["groups"].values():
            group["est_err_avg_final"]["mean"] *= 1.5
        diff = diff_aggregates(old, new)
        assert diff.has_regressions
        assert any(c.metric == "est_err_avg_final" for c in diff.regressions)
        # The opposite direction is an improvement, not a regression.
        reverse = diff_aggregates(new, old)
        assert not reverse.has_regressions
        assert any(change.direction == "better" for change in reverse.changes)

    def test_disappeared_gated_metric_is_a_regression(self):
        old = self.aggregate()
        new = json.loads(json.dumps(old))
        for group in new["groups"].values():
            group.pop("est_err_avg_final", None)  # gated (lower-is-better) metric
            group.pop("est_mean", None)  # unoriented: reported, but never gates
        diff = diff_aggregates(old, new)
        assert diff.has_regressions
        assert any(m.endswith("/est_err_avg_final") for m in diff.missing_gated_metrics)
        assert not any(m.endswith("/est_mean") for m in diff.missing_gated_metrics)
        assert any(m.endswith("/est_mean") for m in diff.missing_metrics)

    def test_newly_failed_cell_is_a_regression(self):
        old = self.aggregate()
        new = json.loads(json.dumps(old))
        key = next(iter(new["cells"]))
        new["failed"] = [key]
        diff = diff_aggregates(old, new)
        assert diff.has_regressions and diff.newly_failed_cells == [key]

    def test_cli_diff_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        aggregate = self.aggregate()
        same = tmp_path / "same.json"
        same.write_text(json.dumps(aggregate))
        assert main(["report", "--diff", str(same), str(same)]) == 0
        worse_aggregate = json.loads(json.dumps(aggregate))
        for group in worse_aggregate["groups"].values():
            group["est_err_avg_final"]["mean"] *= 2.0
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(worse_aggregate))
        assert main(["report", "--diff", str(same), str(worse)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err


class TestScenarioPluginIntegration:
    def test_scenario_exposes_its_plugin(self):
        scenario = Scenario(ScenarioConfig(protocol="gozar", seed=1, latency="constant"))
        assert isinstance(scenario.plugin, ProtocolPlugin)
        assert scenario.plugin.name == "gozar"
        assert scenario.plugin.nat_strategy is NatStrategy.RELAY
        assert not scenario.plugin.estimates_ratio

    def test_every_plugin_runs_through_scenario(self):
        for plugin in all_plugins():
            scenario = Scenario(
                ScenarioConfig(protocol=plugin.name, seed=3, latency="constant")
            )
            public_only = plugin.nat_strategy is NatStrategy.NONE
            scenario.populate(n_public=5, n_private=0 if public_only else 5)
            scenario.run_rounds(3)
            assert scenario.live_count() in (5, 10)
            assert len(scenario.overlay_graph()) == scenario.live_count()
