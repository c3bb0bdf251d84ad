"""Integration tests for the paper's figures (scaled-down versions of each) — the
claims are asserted on the matrix-cell payloads ``run_figure`` returns — and for the
``repro run`` CLI that prints them."""

import dataclasses

import pytest

from repro.cli import main
from repro.experiments import FIGURES, CellSpec, run_figure
from repro.experiments.matrix import SCENARIOS, run_cell
from repro.errors import ConfigurationError, ExperimentError


class TestQuickRun:
    def test_quick_run_summary(self):
        result = run_figure("quick", nodes=50, rounds=40, seed=3, latency="constant",
                            samples_per_node=4)
        [(_, payload)] = result.cells
        scalars = payload.scalars
        assert scalars["live_nodes"] == 50
        assert scalars["true_ratio"] == pytest.approx(0.2)
        assert scalars["est_err_avg_final"] < 0.1
        assert scalars["biggest_cluster_fraction"] == pytest.approx(1.0)
        assert scalars["samples_public"] + scalars["samples_private"] == 200
        assert "estimation error" in result.to_text()


class TestEstimationSpec:
    def test_spec_validation(self):
        bad = CellSpec(scenario="static", protocol="croupier", size=0, seed_index=0, rounds=5)
        with pytest.raises(ExperimentError):
            run_cell(bad, root_seed=42)

    def test_series_collected_every_round(self):
        cell = CellSpec(scenario="static", protocol="croupier", size=25, seed_index=0,
                        rounds=20)
        payload = run_cell(cell, root_seed=42, latency="constant")
        # One sample per measured round; no node has an estimate before round 2.
        assert [t for t, _ in payload.series["est_err_avg"]] == [
            1000.0 * round_index for round_index in range(2, 21)
        ]
        assert payload.scalars["live_nodes"] == 25
        assert payload.scalars["true_ratio"] == pytest.approx(0.2)


class TestHistoryWindows:
    def test_static_ratio_accuracy_improves_with_larger_windows(self):
        result = run_figure("history-static", nodes=60, rounds=80, seed=11,
                            latency="constant", window_pairs=((5, 10), (25, 50)))
        errors = result.scalars("est_err_avg_final", by="alpha")
        # Larger windows give a steadier (not worse) converged estimate.
        assert errors[25] <= errors[5] * 1.5
        assert "Figure 1" in result.to_text()

    def test_dynamic_ratio_growth_happens(self):
        # The CLI defaults: growth must start inside the 60 rounds (it used to be t=58).
        result = run_figure("history-dynamic", nodes=100, rounds=60, seed=11,
                            latency="constant", window_pairs=((5, 10),))
        [(cell, payload)] = result.cells
        assert cell.param("ratio_growth_start_round") < 30
        # The true ratio rose above the initial 0.2 because public nodes were added.
        assert payload.scalars["true_ratio"] > 0.2
        # The estimator followed it: error stays bounded.
        assert payload.scalars["est_err_avg_final"] < 0.15


class TestSystemSizeAndRatioSweep:
    def test_system_size_errors_reported_per_size(self):
        result = run_figure("system-size", nodes=90, rounds=60, seed=9,
                            latency="constant", sizes=(30, 90))
        errors = result.scalars("est_err_avg_final", by="size")
        assert set(errors) == {30, 90}
        assert all(e < 0.2 for e in errors.values())
        # Larger systems estimate at least as accurately as tiny ones (paper Figure 3).
        assert errors[90] <= errors[30] * 1.5 + 0.01

    def test_ratio_sweep_reports_all_ratios(self):
        result = run_figure("ratio-sweep", nodes=60, rounds=60, seed=9,
                            latency="constant", ratios=(0.1, 0.5))
        errors = result.scalars("est_err_avg_final", by="public_ratio")
        assert set(errors) == {0.1, 0.5}
        assert all(e < 0.15 for e in errors.values())


class TestChurn:
    def test_churn_does_not_break_estimation(self):
        result = run_figure("churn", nodes=60, rounds=70, seed=13,
                            latency="constant", churn_levels=(0.0, 0.05))
        errors = result.scalars("est_err_avg_final", by="churn_fraction")
        assert set(errors) == {0.0, 0.05}
        # 5%/round churn should not blow up the estimation error (paper Figure 5).
        assert errors[0.05] < 0.12

    def test_churn_onset_is_inside_a_short_horizon(self):
        # `repro run churn` used to install churn at t=61 whatever --rounds said, and
        # print one static system four times under four churn labels.
        result = run_figure("churn", nodes=40, rounds=20, seed=13, latency="constant")
        assert all(cell.param("churn_start_round") < 20 for cell, _ in result.cells)
        assert len(set(result.scalars("est_err_avg_final", by="churn_fraction").values())) >= 2


class TestRandomnessOverheadFailure:
    def test_randomness_metrics_shapes(self):
        result = run_figure("randomness", nodes=60, rounds=40, seed=17,
                            latency="constant", protocols=("croupier", "cyclon"))
        croupier = result.by("protocol")["croupier"]
        assert croupier.histograms["in_degree"]
        assert result.by("protocol")["cyclon"].histograms["in_degree"]
        assert croupier.series["path_length"][-1][1] < 4.0
        assert 0.0 <= croupier.series["clustering"][-1][1] <= 1.0
        assert "Figure 6" in result.to_text()

    def test_overhead_orderings_match_paper(self):
        result = run_figure("overhead", nodes=100, rounds=35, seed=19, latency="constant")
        private = result.scalars("private_bps", by="protocol")
        public = result.scalars("public_bps", by="protocol")
        # The paper's headline: Croupier's private-node overhead is well below Gozar's
        # and Nylon's, and its public-node overhead is also the lowest of the three.
        assert private["croupier"] < 0.5 * private["gozar"]
        assert private["croupier"] < 0.25 * private["nylon"]
        assert public["croupier"] < public["gozar"]
        # The public-only Cyclon cell is the baseline the figure normalises against.
        assert set(private) == {"croupier", "gozar", "nylon", "cyclon"}
        assert result.scalars("all_bps", by="public_ratio")[1.0] > 0
        assert result.by("public_ratio")[1.0] is result.by("protocol")["cyclon"]
        assert "rel. Cyclon" in result.to_text()

    def test_failure_experiment_croupier_at_least_as_resilient(self):
        result = run_figure("failure", nodes=150, rounds=30, latency="constant", seed=23,
                            protocols=("croupier", "gozar"), fractions=(0.8,))
        clusters = result.scalars("biggest_cluster_fraction", by="protocol")
        assert 0.0 < clusters["croupier"] <= 1.0
        assert clusters["croupier"] >= clusters["gozar"] - 0.05
        assert "Figure 7(b)" in result.to_text()


class TestAblations:
    def test_view_representation_croupier_unbiased(self):
        result = run_figure("ablation-views", nodes=60, rounds=40, seed=29,
                            latency="constant", protocols=("croupier", "cyclon"),
                            samples_per_node=10)
        sampled = result.scalars("sample_private_fraction", by="protocol")
        croupier = result.by("protocol")["croupier"].scalars
        # Croupier keeps private nodes represented close to their true share; a
        # NAT-oblivious Cyclon under-represents them.
        assert abs(1.0 - croupier["true_ratio"] - sampled["croupier"]) < 0.15
        assert sampled["croupier"] > sampled["cyclon"]
        assert "Ablation A1" in result.to_text()

    def test_piggyback_bound_tradeoff(self):
        result = run_figure("ablation-piggyback", nodes=50, rounds=50, seed=31,
                            latency="constant", bounds=(0, 10))
        # More piggy-backed estimates -> bigger messages, so more bytes per node:
        # a static loss-free cell sends as many messages whatever the bound.
        load = result.scalars("all_bps", by="max_estimates")
        assert load[10] > load[0]
        # And (weakly) better estimation than sharing nothing at all.
        errors = result.scalars("est_err_avg_final", by="max_estimates")
        assert errors[10] <= errors[0] + 0.02

    def test_selection_policy_ablation_runs(self):
        result = run_figure("ablation-selection", nodes=40, rounds=40, seed=37,
                            latency="constant")
        errors = result.scalars("est_err_avg_final", by="selection")
        assert set(errors) == {"tail", "random"}
        assert all(v is not None for v in errors.values())


#: ``repro run`` name -> a title its report prints.
RUN_TITLES = {
    "quick": "estimation error",
    "ablation-views": "Ablation A1",
    "ablation-piggyback": "Ablation A3",
    "ablation-selection": "Ablation A4",
    "history-static": "Figure 1",
    "history-dynamic": "Figure 2",
    "system-size": "Figure 3",
    "ratio-sweep": "Figure 4",
    "churn": "Figure 5",
    "randomness": "Figure 6(a)",
    "overhead": "Figure 7(a)",
    "failure": "Figure 7(b)",
    "nat-indegree": "Symmetric-NAT underrepresentation",
    "scale": "Horizon scale",
}


class TestRunCli:
    def test_run_list_is_every_figure_and_scale(self, capsys):
        """A new ``repro run`` name must be a figure: ``scale`` alone is not."""
        assert main(["run", "list"]) == 0
        assert capsys.readouterr().out.split()[2:] == sorted([*FIGURES, "scale"])
        assert sorted(RUN_TITLES) == sorted([*FIGURES, "scale"])

    @pytest.mark.parametrize("name", sorted(RUN_TITLES))
    def test_every_name_runs_and_prints_its_figure(self, name, capsys):
        size = ["--nodes", "30", "--rounds", "12"]
        if name == "scale":  # the columnar figure, at test_run_scale_experiment_harness's size
            pytest.importorskip("numpy")
            size = ["--nodes", "300", "--rounds", "20"]
        assert main(["run", name, "--latency", "constant"] + size) == 0
        assert RUN_TITLES[name] in capsys.readouterr().out

    def test_unknown_name_and_degenerate_size_exit_2(self, capsys):
        assert main(["run", "static"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
        # Used to print rows N=0 and N=1 and exit 0.
        assert main(["run", "system-size", "--nodes", "1"]) == 2
        assert "cell size must be positive" in capsys.readouterr().err


#: Figures the columnar engine refuses, and why.
OBJECT_ONLY_FIGURES = {
    "quick": "draws samples through each node's PSS",
    "ablation-views": "draws samples through each node's PSS",
    "ablation-selection": "selection=random, and draws samples through each node's PSS",
}


class TestFigureCells:
    def test_cells_validate_with_unique_keys_and_registered_kinds(self):
        for figure in FIGURES.values():
            cells = figure.cells(100, 60)
            for cell in cells:
                cell.validate()
                assert cell.scenario in SCENARIOS
            assert len({cell.key for cell in cells}) == len(cells) > 0

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_figure_runs_on_the_columnar_engine(self, name):
        """Every figure's cells run on ``engine="columnar"`` and report the same
        metrics by name, except the figures of :data:`OBJECT_ONLY_FIGURES`, whose
        cells are refused by name. The paper's claims are *not* asserted there:
        ROADMAP item 1 records where the two engines' numbers still differ."""
        pytest.importorskip("numpy")
        for cell in FIGURES[name].cells(40, 12):
            twin = dataclasses.replace(cell, engine="columnar")
            twin.validate()
            if name in OBJECT_ONLY_FIGURES:
                with pytest.raises(ConfigurationError,
                                   match="runs only on engine='object'"):
                    run_cell(twin, root_seed=42, latency="constant")
                continue
            names = [
                (sorted(p.scalars), sorted(p.series), sorted(p.histograms))
                for p in (run_cell(c, root_seed=42, latency="constant") for c in (cell, twin))
            ]
            assert names[0] == names[1]
