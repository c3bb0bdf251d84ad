"""Tests for the NAT-realism layer: NAT mixtures, the ``nat_mixture``/``upnp_fraction``
matrix axes, the per-NAT-type metric breakdown, scenario snapshots (``clone``) and the
Kolmogorov–Smirnov histogram gate."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.matrix import (
    DEFAULT_NAT_MIXTURE,
    DEFAULT_UPNP_FRACTION,
    CellContext,
    CellSpec,
    MatrixSpec,
    run_cell,
)
from repro.experiments.report import diff_aggregates, ks_distance
from repro.experiments.runner import aggregate_json_bytes, run_matrix
from repro.nat.mixture import NAT_MIXTURES, NatMixture
from repro.nat.types import NAMED_PROFILES
from repro.workload.scenario import Scenario, ScenarioConfig


class TestNatMixtureType:
    def test_registered_mixtures_cover_paper_distribution(self):
        paper = NAT_MIXTURES["paper"]
        assert {name for name, _ in paper.weights} == set(NAMED_PROFILES)
        # Cone NATs dominate; symmetric is the minority — the measured skew.
        weights = dict(paper.weights)
        assert weights["symmetric"] == min(weights.values())

    def test_unknown_mixture_name_raises(self):
        # Mixture names are resolved against the registry when a cell is validated;
        # the error names every registered mixture so a typo is easy to mend.
        assert "carrier-grade" not in NAT_MIXTURES
        cell = CellSpec(scenario="static", protocol="croupier", size=10, seed_index=0,
                        rounds=2, nat_mixture="carrier-grade")
        with pytest.raises(ExperimentError) as excinfo:
            cell.validate()
        message = str(excinfo.value)
        assert "carrier-grade" in message
        for name in NAT_MIXTURES:
            assert name in message

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            NatMixture("bad", tuple({"quantum_nat": 1.0}.items()))
        assert "quantum_nat" in str(excinfo.value)

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            NatMixture("bad", tuple({"full_cone": 0.0}.items()))
        with pytest.raises(ConfigurationError):
            NatMixture("bad", tuple({"full_cone": -1.0, "symmetric": 2.0}.items()))

    def test_empty_and_duplicate_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            NatMixture(name="bad", weights=())
        with pytest.raises(ConfigurationError):
            NatMixture(name="bad", weights=(("full_cone", 1.0), ("full_cone", 2.0)))

    def test_sampling_is_deterministic_and_normalised(self):
        import random

        mixture = NatMixture("t", tuple({"full_cone": 3.0, "symmetric": 1.0}.items()))
        draws = [mixture.sample_name(random.Random(4)) for _ in range(5)]
        assert len(set(draws)) == 1  # same RNG state -> same draw
        rng = random.Random(4)
        names = [mixture.sample_name(rng) for _ in range(4000)]
        share = names.count("full_cone") / len(names)
        assert 0.70 < share < 0.80  # 3:1 weights, loose statistical bound


class TestScenarioMixtureSampling:
    def config(self, seed=11):
        return ScenarioConfig(
            seed=seed, latency="constant", nat_mixture=NAT_MIXTURES["paper"]
        )

    def test_same_seed_same_per_gateway_assignment(self):
        first = Scenario(self.config())
        first.populate(n_public=5, n_private=40)
        second = Scenario(self.config())
        second.populate(n_public=5, n_private=40)
        assert first.nat_class_members() == second.nat_class_members()
        by_node_first = {
            h.node_id: h.nat_profile_name for h in first.live_handles()
        }
        by_node_second = {
            h.node_id: h.nat_profile_name for h in second.live_handles()
        }
        assert by_node_first == by_node_second

    def test_different_seed_diverges(self):
        first = Scenario(self.config(seed=11))
        first.populate(n_public=5, n_private=40)
        second = Scenario(self.config(seed=12))
        second.populate(n_public=5, n_private=40)
        assert first.nat_class_members() != second.nat_class_members()

    def test_mixture_produces_heterogeneous_gateways(self):
        scenario = Scenario(self.config())
        scenario.populate(n_public=5, n_private=60)
        classes = scenario.nat_class_members()
        nat_classes = set(classes) - {"public", "upnp"}
        assert len(nat_classes) >= 2  # 60 draws from a 4-way mixture
        assert sum(len(ids) for ids in classes.values()) == 65

    def test_mixture_does_not_perturb_default_runs(self):
        """A mixture-free scenario consumes no mixture randomness: the run is
        bit-identical to one built before the mixture feature existed (the golden
        fingerprint test pins the same property at full scale)."""
        plain = Scenario(ScenarioConfig(seed=3, latency="constant"))
        plain.populate(n_public=4, n_private=12)
        plain.run_rounds(5)
        again = Scenario(ScenarioConfig(seed=3, latency="constant"))
        again.populate(n_public=4, n_private=12)
        again.run_rounds(5)
        assert plain.sim.events_executed == again.sim.events_executed
        assert plain.nat_class_members() == {"public": plain.live_public_ids(),
                                             "restricted_cone": plain.live_private_ids()}


class TestMatrixAxes:
    def test_default_axis_values_keep_cell_keys_stable(self):
        cell = CellSpec(scenario="static", protocol="croupier", size=50, seed_index=0,
                        rounds=6)
        assert cell.nat_mixture == DEFAULT_NAT_MIXTURE
        assert cell.upnp_fraction == DEFAULT_UPNP_FRACTION
        assert "nat_mixture" not in cell.key and "upnp_fraction" not in cell.key
        # The exact legacy key, byte for byte — archived seeds depend on it.
        assert cell.key == (
            "scenario=static;protocol=croupier;size=50;seed=0;rounds=6;public_ratio=0.2"
        )

    def test_swept_axis_values_appear_in_key_and_group(self):
        from repro.experiments.runner import _group_key

        cell = CellSpec(scenario="static", protocol="croupier", size=50, seed_index=1,
                        rounds=6, nat_mixture="paper", upnp_fraction=0.2)
        assert "nat_mixture=paper" in cell.key
        assert "upnp_fraction=0.2" in cell.key
        group = _group_key(cell)
        assert "nat_mixture=paper" in group and "upnp_fraction=0.2" in group
        assert "seed" not in group

    def test_unknown_mixture_and_conflicting_axes_rejected(self):
        bad = CellSpec(scenario="static", protocol="croupier", size=10, seed_index=0,
                       rounds=2, nat_mixture="carrier-grade")
        with pytest.raises(ExperimentError):
            bad.validate()
        with pytest.raises(ExperimentError):
            CellSpec(scenario="static", protocol="croupier", size=10, seed_index=0,
                     rounds=2, upnp_fraction=1.5).validate()

    def test_axes_expand_the_grid(self):
        spec = MatrixSpec(
            scenarios=("static",), protocols=("croupier",), sizes=(30,), seeds=1,
            rounds=3, latency="constant",
            nat_mixtures=("none", "paper"), upnp_fractions=(0.0, 0.2),
        )
        cells = spec.validate()
        assert len(cells) == 4
        assert {(c.nat_mixture, c.upnp_fraction) for c in cells} == {
            ("none", 0.0), ("none", 0.2), ("paper", 0.0), ("paper", 0.2)
        }
        assert "nat_mixtures" in spec.describe()

    def test_axis_values_reach_the_scenario_config(self):
        cell = CellSpec(scenario="static", protocol="croupier", size=20, seed_index=0,
                        rounds=2, nat_mixture="paper", upnp_fraction=0.3)
        config = CellContext(cell=cell, seed=1, latency="constant").scenario_config()
        assert config.nat_mixture is NAT_MIXTURES["paper"]
        assert config.upnp_fraction == 0.3

    def test_upnp_fraction_axis_raises_the_effective_public_ratio(self):
        base = CellSpec(scenario="static", protocol="croupier", size=60, seed_index=0,
                        rounds=4)
        upnp = CellSpec(scenario="static", protocol="croupier", size=60, seed_index=0,
                        rounds=4, upnp_fraction=0.5)
        plain = run_cell(base, root_seed=5, latency="constant")
        helped = run_cell(upnp, root_seed=5, latency="constant")
        assert helped.scalars["true_ratio"] > plain.scalars["true_ratio"]


class TestMixtureMatrixDeterminism:
    def spec(self, workers_unused=None) -> MatrixSpec:
        return MatrixSpec(
            scenarios=("static",),
            protocols=("croupier",),
            sizes=(40,),
            seeds=2,
            rounds=4,
            latency="constant",
            root_seed=13,
            nat_mixtures=("paper",),
            upnp_fractions=(0.0, 0.2),
        )

    def test_aggregate_bytes_identical_across_worker_counts(self):
        sequential = run_matrix(self.spec(), workers=1)
        parallel = run_matrix(self.spec(), workers=3)
        assert not sequential.failed and not parallel.failed
        assert aggregate_json_bytes(sequential) == aggregate_json_bytes(parallel)

    def test_mixture_cells_carry_per_nat_type_breakdown(self):
        run = run_matrix(self.spec(), workers=1)
        payload = run.results[0].payload
        breakdown = [name for name in payload.histograms if name.startswith("in_degree_")]
        assert breakdown  # at least one NAT class beyond the overall histogram
        assert "in_degree_public" in payload.histograms
        assert any(name in payload.scalars for name in
                   ("indeg_mean_restricted_cone", "indeg_mean_symmetric",
                    "indeg_mean_port_restricted_cone", "indeg_mean_full_cone"))
        # Per-class histograms partition the overall one.
        overall = sum(payload.histograms["in_degree"].values())
        split = sum(
            sum(h.values()) for name, h in payload.histograms.items()
            if name.startswith("in_degree_")
        )
        assert split == overall

    def test_default_cells_carry_no_breakdown(self):
        cell = CellSpec(scenario="static", protocol="croupier", size=40, seed_index=0,
                        rounds=4)
        payload = run_cell(cell, root_seed=13, latency="constant")
        assert list(payload.histograms) == ["in_degree"]


class TestScenarioClone:
    def test_clone_continues_bit_identically_and_leaves_original_pristine(self):
        original = Scenario(ScenarioConfig(protocol="croupier", seed=9,
                                           latency="constant"))
        original.populate(n_public=4, n_private=12)
        original.run_rounds(5)
        now_before = original.sim.now
        cloned = original.clone()
        cloned.run_rounds(5)
        reference = Scenario(ScenarioConfig(protocol="croupier", seed=9,
                                            latency="constant"))
        reference.populate(n_public=4, n_private=12)
        reference.run_rounds(10)
        assert cloned.sim.events_executed == reference.sim.events_executed
        assert cloned.network.packets_sent == reference.network.packets_sent
        assert (
            [h.pss.estimated_ratio() for h in cloned.live_handles()]
            == [h.pss.estimated_ratio() for h in reference.live_handles()]
        )
        assert original.sim.now == now_before  # branching never advances the source


class TestKsHistogramGate:
    def test_ks_distance_values(self):
        assert ks_distance({0: 5, 1: 5}, {0: 5, 1: 5}) == 0.0
        assert ks_distance({0: 10}, {5: 10}) == 1.0
        assert ks_distance({"0": 5, "1": 5}, {0: 5, 1: 5}) == 0.0  # JSON string bins
        assert ks_distance({0: 5, 1: 5}, {0: 7, 1: 3}) == pytest.approx(0.2)
        assert ks_distance({}, {}) == 0.0
        assert ks_distance({0: 1}, {}) == 1.0

    def aggregate(self) -> dict:
        run = run_matrix(
            MatrixSpec(scenarios=("static",), protocols=("croupier",), sizes=(30,),
                       seeds=1, rounds=4, latency="constant", root_seed=5),
            workers=1,
        )
        return json.loads(aggregate_json_bytes(run).decode("utf-8"))

    def test_self_diff_reports_no_histogram_changes(self):
        aggregate = self.aggregate()
        diff = diff_aggregates(aggregate, aggregate)
        assert not diff.histogram_changes and not diff.has_regressions

    def test_shifted_in_degree_distribution_gates(self):
        old = self.aggregate()
        new = json.loads(json.dumps(old))
        group = next(iter(new["group_histograms"]))
        histogram = new["group_histograms"][group]["in_degree"]
        new["group_histograms"][group]["in_degree"] = {
            str(int(bin_) + 15): count for bin_, count in histogram.items()
        }
        diff = diff_aggregates(old, new)
        assert diff.has_regressions
        assert diff.histogram_regressions[0].name == "in_degree"
        assert diff.histogram_regressions[0].distance > 0.5
        assert "KS distance" in diff.to_text()

    def test_small_drift_is_surfaced_but_does_not_gate(self):
        old = self.aggregate()
        new = json.loads(json.dumps(old))
        group = next(iter(new["group_histograms"]))
        histogram = dict(new["group_histograms"][group]["in_degree"])
        # Move one node to a neighbouring bin: tiny CDF shift, below tolerance.
        bins = sorted(histogram, key=int)
        donor = next(b for b in bins if histogram[b] > 0)
        histogram[donor] -= 1
        target = str(int(donor) + 1)
        histogram[target] = histogram.get(target, 0) + 1
        new["group_histograms"][group]["in_degree"] = histogram
        diff = diff_aggregates(old, new, ks_tolerance=0.1)
        assert diff.histogram_changes and not diff.histogram_regressions
        assert not diff.has_regressions

    def test_disappeared_histogram_is_a_regression(self):
        old = self.aggregate()
        new = json.loads(json.dumps(old))
        group = next(iter(new["group_histograms"]))
        del new["group_histograms"][group]["in_degree"]
        diff = diff_aggregates(old, new)
        assert diff.has_regressions
        assert any(entry.endswith("/in_degree") for entry in diff.missing_histograms)

    def test_cli_ks_tolerance_flag(self, tmp_path, capsys):
        from repro.cli import main

        old = self.aggregate()
        new = json.loads(json.dumps(old))
        group = next(iter(new["group_histograms"]))
        histogram = new["group_histograms"][group]["in_degree"]
        new["group_histograms"][group]["in_degree"] = {
            str(int(bin_) + 15): count for bin_, count in histogram.items()
        }
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        assert main(["report", "--diff", str(old_path), str(new_path)]) == 1
        capsys.readouterr()
        # A KS tolerance above the shift waves the same diff through.
        assert main(["report", "--diff", str(old_path), str(new_path),
                     "--ks-tolerance", "1.0"]) == 0


class TestCliAxes:
    def test_cli_paper_shorthands(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "mx"
        rc = main([
            "matrix", "--scenarios", "static", "--protocols", "croupier",
            "--sizes", "20", "--seeds", "1", "--rounds", "2",
            "--latency", "constant", "--workers", "1",
            "--nat-mixtures", "paper", "--upnp-fractions", "0,0.2",
            "--out", str(out),
        ])
        assert rc == 0
        aggregate = json.loads((out / "matrix_aggregate.json").read_text())
        assert aggregate["spec"]["nat_mixtures"] == ["paper"]
        assert aggregate["spec"]["upnp_fractions"] == [0.0, 0.2]

    def test_cli_rejects_unparsable_upnp_fractions(self):
        from repro.cli import main

        rc = main([
            "matrix", "--scenarios", "static", "--protocols", "croupier",
            "--sizes", "10", "--seeds", "1", "--rounds", "2",
            "--upnp-fractions", "lots",
        ])
        assert rc == 2
