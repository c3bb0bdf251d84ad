"""Tests for the experiment-matrix layer: spec expansion, seed derivation, the sharded
multiprocess runner's parity and crash behaviour, aggregation and the CLI."""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.figures import FIGURES
from repro.experiments.matrix import (
    SCENARIOS,
    CellSpec,
    MatrixSpec,
    cell_seed,
    derive_cell_seed,
    register_scenario,
    run_cell,
    unregister_scenario,
)
from repro.experiments.runner import (
    aggregate_json_bytes,
    build_aggregate,
    cells_csv_text,
    run_matrix,
    write_artifacts,
)
from repro.metrics.collector import aggregate_metrics, percentile, summarize_values
from repro.metrics.payload import MetricPayload
from repro.simulator.core import Simulator, derive_seed


# A 2-protocol × 2-seed fixed grid, small enough for CI but real enough to exercise
# simulation, measurement and aggregation end to end.
def small_spec(**overrides) -> MatrixSpec:
    defaults = dict(
        scenarios=("static",),
        protocols=("croupier", "cyclon"),
        sizes=(50,),
        seeds=2,
        rounds=6,
        latency="constant",
        root_seed=7,
    )
    defaults.update(overrides)
    return MatrixSpec(**defaults)


class TestSeedDerivation:
    def test_cell_seed_is_stable_across_sessions(self):
        # Pinned values: the derivation is sha256-based, so it must never drift across
        # platforms or refactors — a drift would silently invalidate every archived
        # matrix aggregate.
        key = "scenario=static;protocol=croupier;size=50;seed=0;rounds=6;public_ratio=0.2"
        assert derive_cell_seed(42, key) == 11297025424507210731
        assert derive_cell_seed(7, key) == 12240249230855319868

    def test_cell_seed_matches_simulator_derivation_rule(self):
        key = CellSpec(
            scenario="static", protocol="croupier", size=10, seed_index=0, rounds=5
        ).key
        assert derive_cell_seed(42, key) == derive_seed(42, "matrix-cell", key)

    def test_distinct_cells_get_distinct_seeds(self):
        cells = small_spec().cells()
        seeds = {derive_cell_seed(7, cell.key) for cell in cells}
        assert len(seeds) == len(cells)

    def test_derive_rng_unchanged_by_refactor(self):
        # derive_seed() was extracted from Simulator.derive_rng; both must agree.
        sim = Simulator(seed=7)
        import random

        assert (
            sim.derive_rng("croupier", 12).random()
            == random.Random(derive_seed(7, "croupier", 12)).random()
        )


class TestSpecExpansion:
    def test_grid_size_and_stable_order(self):
        spec = small_spec(sizes=(30, 50))
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2  # protocols × sizes × seeds
        assert cells == spec.cells()  # expansion is deterministic
        assert len({c.key for c in cells}) == len(cells)

    def test_churn_figure_expands_its_four_levels(self):
        cells = MatrixSpec(figures=("churn",), sizes=(50,), rounds=30).validate()
        assert [c.param("churn_fraction") for c in cells] == [0.001, 0.01, 0.025, 0.05]
        # The figure's onset, scaled to the horizon: a third of 30 rounds.
        assert {c.param("churn_start_round") for c in cells} == {10}

    def test_ratio_kind_follows_the_public_ratio_axis(self):
        """The ``ratio`` kind once carried a default ``public_ratio`` param that
        overrode ``--public-ratio``; its cells now take the axis like every kind's."""
        cells = small_spec(scenarios=("ratio", "static"), protocols=("croupier",),
                           seeds=1, public_ratio=0.5).validate()
        assert [(c.scenario, c.public_ratio, c.params) for c in cells] == [
            ("ratio", 0.5, ()), ("static", 0.5, ())]
        # At the default ratio the cell key is the one the kind always had.
        [cell] = small_spec(scenarios=("ratio",), protocols=("croupier",), seeds=1).cells()
        assert cell.key == "scenario=ratio;protocol=croupier;size=50;seed=0;rounds=6;public_ratio=0.2"

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_a_figure_spec_expands_to_the_figures_cells(self, name):
        if name == "scale":
            pytest.importorskip("numpy")  # its cells are columnar
        for size, rounds in ((40, 20), (100, 30)):
            cells = MatrixSpec(figures=(name,), sizes=(size,), rounds=rounds,
                               seeds=1).validate()
            expected = FIGURES[name].cells(size, rounds)
            assert cells == expected
            assert ([(c.key, cell_seed(42, c)) for c in cells]
                    == [(c.key, cell_seed(42, c)) for c in expected])

    def test_figure_cells_cross_the_seed_and_axis_values(self):
        """Seeds and the deployment axes cross a figure's cells; an axis a cell
        already sets off its default (``scale`` is columnar) keeps the cell's value."""
        pytest.importorskip("numpy")
        spec = MatrixSpec(figures=("scale", "churn"), sizes=(50,), rounds=30, seeds=2,
                          engines=("object", "columnar"), upnp_fractions=(0.0, 0.1))
        cells = spec.validate()
        assert len(cells) == 2 * 2 * 2 + 4 * 2 * 2 * 2
        assert {c.engine for c in cells if c.scenario == "scale"} == {"columnar"}
        assert {(c.engine, c.upnp_fraction, c.seed_index) for c in cells
                if c.scenario == "churn"} == {
            (engine, upnp, seed) for engine in ("object", "columnar")
            for upnp in (0.0, 0.1) for seed in (0, 1)}
        assert spec.spec_json_dict()["figures"] == ["scale", "churn"]
        assert "scenarios" not in spec.spec_json_dict()

    @pytest.mark.parametrize("flag, overrides", [
        ("--scenarios", {"scenarios": ("churn",)}),
        ("--protocols", {"protocols": ("gozar",)}),
        ("--public-ratio", {"public_ratio": 0.5}),
    ])
    def test_figures_refuse_the_kind_grid_axes(self, flag, overrides):
        spec = MatrixSpec(figures=("churn",), **overrides)
        with pytest.raises(ExperimentError, match=f"{flag} cannot be combined with --figures"):
            spec.validate()

    def test_an_unknown_figure_is_a_named_error(self, capsys):
        from repro.cli import main

        with pytest.raises(ExperimentError, match="unknown figure 'fig5'"):
            MatrixSpec(figures=("fig5",)).validate()
        assert main(["matrix", "--figures", "churn", "--protocols", "gozar",
                     "--dry-run"]) == 2
        assert "--protocols cannot be combined with --figures" in capsys.readouterr().err

    @pytest.mark.parametrize("name, nodes, rounds", [("churn", 16, 6), ("failure", 8, 2)])
    def test_a_figure_matrix_reproduces_run_figure(self, name, nodes, rounds):
        from repro.experiments.figures import run_figure

        spec = MatrixSpec(figures=(name,), sizes=(nodes,), rounds=rounds, seeds=1,
                          latency="constant", root_seed=5)
        run = run_matrix(spec, workers=1)
        assert not run.failed
        figure = run_figure(name, nodes=nodes, rounds=rounds, seed=5, latency="constant")
        assert [r.key for r in run.results] == [cell.key for cell, _ in figure.cells]
        assert ([r.payload.scalars for r in run.results]
                == [payload.scalars for _, payload in figure.cells])

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ExperimentError):
            small_spec(scenarios=("no-such-kind",)).validate()
        with pytest.raises(ExperimentError):
            small_spec(seeds=0).validate()
        with pytest.raises(ExperimentError):
            small_spec(protocols=("not-a-protocol",)).validate()
        with pytest.raises(ExperimentError):
            run_matrix(small_spec(), workers=0)

    def test_an_unknown_latency_is_refused_before_any_cell_runs(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["matrix", "--latency", "bogus", "--sizes", "20", "--rounds", "2",
                     "--dry-run"]) == 2
        assert "unknown latency model 'bogus'" in capsys.readouterr().err
        journal = tmp_path / "journal.jsonl"
        with pytest.raises(ExperimentError, match="unknown latency model 'bogus'"):
            run_matrix(small_spec(latency="bogus"), journal_path=journal)
        assert not journal.exists()

    def test_dynamics_past_the_horizon_are_refused_before_any_cell_runs(self, capsys):
        """Churn or ratio growth starting at or after the last round would measure a
        static system under a dynamic label: ``CellSpec.validate`` names it."""
        from repro.cli import main

        assert main(["matrix", "--scenarios", "churn", "--rounds", "10", "--dry-run"]) == 2
        assert ("churn_start_round=10 is beyond the cell's rounds=10"
                in capsys.readouterr().err)
        growth = CellSpec(scenario="history", protocol="croupier", size=20, seed_index=0,
                          rounds=20, params=(("ratio_growth_count", 5),
                                             ("ratio_growth_start_round", 20)))
        with pytest.raises(ExperimentError, match="ratio_growth_start_round=20 is beyond"):
            growth.validate()
        dataclasses.replace(growth, rounds=21).validate()
        # The gate grids' and the benchmark's churn cells: onset 10 at 20, 40, 90 rounds.
        for rounds in (20, 40, 90):
            small_spec(scenarios=("churn",), rounds=rounds).validate()

    def test_an_object_only_kind_is_refused_on_the_columnar_engine(self):
        """``pss`` draws samples through each node's service: the grid is refused
        at validation, naming the kind and the engine, before any cell runs."""
        small_spec(scenarios=("pss",)).validate()
        with pytest.raises(ExperimentError, match=r"kind 'pss' .* engine='columnar'"):
            small_spec(scenarios=("pss",), engines=("object", "columnar")).validate()


class TestParallelParity:
    def test_parallel_aggregate_bytes_identical_to_sequential(self):
        spec = small_spec()
        sequential = run_matrix(spec, workers=1)
        parallel = run_matrix(spec, workers=4)
        assert len(sequential.results) == 4
        assert not sequential.failed and not parallel.failed
        assert aggregate_json_bytes(sequential) == aggregate_json_bytes(parallel)
        # CSV artifact is deterministic too (it contains no wall-clock values).
        assert cells_csv_text(sequential) == cells_csv_text(parallel)

    def test_results_come_back_in_spec_order(self):
        spec = small_spec()
        run = run_matrix(spec, workers=4)
        assert [r.key for r in run.results] == [c.key for c in spec.cells()]


class TestCrashSurfacing:
    def test_worker_crash_is_a_failed_cell_not_a_hung_pool(self):
        def exploding_cell(ctx):
            raise RuntimeError(f"boom in {ctx.cell.key}")

        register_scenario("boom", exploding_cell, description="test-only crasher")
        try:
            spec = small_spec(scenarios=("static", "boom"), protocols=("croupier",),
                              seeds=1)
            run = run_matrix(spec, workers=2)
        finally:
            unregister_scenario("boom")
        assert len(run.results) == 2
        ok = [r for r in run.results if r.ok]
        failed = run.failed
        assert len(ok) == 1 and len(failed) == 1
        assert failed[0].cell.scenario == "boom"
        assert "RuntimeError" in failed[0].error and "boom" in failed[0].error
        aggregate = run.aggregate
        assert aggregate["failed"] == [failed[0].key]
        assert aggregate["cells"][failed[0].key]["status"] == "failed"

    def test_unknown_scenario_kind_raises_when_run_directly(self):
        cell = CellSpec(scenario="nope", protocol="croupier", size=10, seed_index=0,
                        rounds=2)
        with pytest.raises(ExperimentError):
            run_cell(cell, root_seed=1)


class TestFailureKind:
    """The ``failure`` kind (Figure 7(b)) branches on ``failure_fraction``: the cells
    of one protocol share a seed and clone one warmed prefix."""

    @staticmethod
    def count_builds(monkeypatch):
        """The configs of every scenario built from here on, with the process's
        warmed-prefix slot emptied first."""
        from repro.experiments import matrix
        from repro.workload import scenario as scenario_module

        monkeypatch.setattr(matrix, "_WARM_PREFIX", None)
        built = []
        create = scenario_module.create_scenario
        monkeypatch.setattr(scenario_module, "create_scenario",
                            lambda config=None: built.append(config) or create(config))
        return built

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_failure_cell_kills_the_given_fraction_deterministically(self, engine):
        if engine == "columnar":
            pytest.importorskip("numpy")
        cell = CellSpec(scenario="failure", protocol="croupier", size=40, seed_index=0,
                        rounds=10, engine=engine, params=(("failure_fraction", 0.5),))
        first = run_cell(cell, root_seed=7, latency="constant")
        again = run_cell(cell, root_seed=7, latency="constant")
        assert first.to_json_dict() == again.to_json_dict()
        scalars = first.scalars
        assert scalars["failure_fraction"] == 0.5
        assert scalars["survivors"] == round(40 * (1 - 0.5))
        assert 0 < scalars["biggest_cluster_fraction"] <= 1

    def test_the_failure_figures_cells_validate(self):
        cells = MatrixSpec(figures=("failure",), sizes=(50,), rounds=6).validate()
        assert [(cell.protocol, cell.param("failure_fraction")) for cell in cells] == [
            (protocol, fraction) for protocol in ("croupier", "gozar", "nylon", "cyclon")
            for fraction in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]

    @staticmethod
    def failure_cell(fraction: float, protocol: str = "croupier") -> CellSpec:
        return CellSpec(scenario="failure", protocol=protocol, size=30, seed_index=0,
                        rounds=6, params=(("failure_fraction", fraction),))

    def test_fractions_share_one_seed_in_run_cell_and_dry_run(self, monkeypatch, capsys):
        from repro.cli import main

        seeds = []
        monkeypatch.setitem(SCENARIOS, "failure", dataclasses.replace(
            SCENARIOS["failure"], runner=lambda ctx: seeds.append(ctx.seed) or MetricPayload()))
        for fraction in (0.4, 0.9):
            run_cell(self.failure_cell(fraction), root_seed=7)
        run_cell(self.failure_cell(0.4, protocol="gozar"), root_seed=7)
        assert seeds[0] == seeds[1] != seeds[2]
        # Only the branch param is left out: the rest of the key still seeds the cell.
        assert seeds[0] == derive_cell_seed(
            7, "scenario=failure;protocol=croupier;size=30;seed=0;rounds=6;public_ratio=0.2")

        assert main(["matrix", "--figures", "failure", "--sizes", "30", "--seeds", "2",
                     "--rounds", "6", "--root-seed", "7", "--dry-run"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 6 * 4 * 2
        by_branch = {}
        for key, seed, _ in rows:
            by_branch.setdefault(re.sub(r";failure_fraction=[^;]*", "", key), set()).add(seed)
        assert len(by_branch) == 8 and all(len(s) == 1 for s in by_branch.values())
        assert len(set().union(*by_branch.values())) == 8
        assert by_branch[
            "scenario=failure;protocol=croupier;size=30;seed=0;rounds=6;public_ratio=0.2"
        ] == {str(seeds[0])}

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_each_fraction_is_a_clone_of_one_warmed_scenario(self, engine, monkeypatch):
        from repro.experiments.matrix import CellContext, cell_seed, measure_cell
        from repro.workload.events import FailureSpike
        from repro.workload.scenario import create_scenario

        if engine == "columnar":
            pytest.importorskip("numpy")
        cells = [dataclasses.replace(self.failure_cell(fraction), engine=engine)
                 for fraction in (0.4, 0.7, 0.9)]
        context = CellContext(cell=cells[0], seed=cell_seed(7, cells[0]),
                              latency="constant")
        warmed = create_scenario(context.scenario_config())
        warmed.populate(n_public=context.n_public, n_private=context.n_private)
        warmed.run_rounds(6)
        built = self.count_builds(monkeypatch)
        for cell in cells:
            fraction = cell.param("failure_fraction")
            branch = warmed.clone()
            outcome = FailureSpike(at_round=6.0, fraction=fraction).apply(branch)
            expected = measure_cell(branch)
            expected.set_scalar("failure_fraction", fraction)
            expected.set_scalar("survivors", float(outcome.survivors))
            expected.set_scalar("biggest_cluster_fraction",
                                outcome.biggest_cluster_fraction)
            expected.scalars = dict(sorted(expected.scalars.items()))
            payload = run_cell(cell, root_seed=7, latency="constant")
            assert payload.to_json_dict() == expected.to_json_dict()
        assert len(built) == 1  # the first fraction warms; the others clone

    def test_figure_warms_once_per_protocol(self, monkeypatch):
        from repro.experiments import figures

        built = self.count_builds(monkeypatch)
        result = figures.run_figure("failure", nodes=30, rounds=6, seed=5,
                                    latency="constant", protocols=("croupier", "cyclon"),
                                    fractions=(0.4, 0.6, 0.8))
        assert len(built) == 2
        assert [(cell.protocol, cell.param("failure_fraction"))
                for cell, _ in result.cells] == [
            (protocol, fraction) for protocol in ("croupier", "cyclon")
            for fraction in (0.4, 0.6, 0.8)]
        assert all(0.0 <= payload.scalars["biggest_cluster_fraction"] <= 1.0
                   for _, payload in result.cells)
        # Cyclon is public-only, as in the paper.
        assert {cell.public_ratio for cell, _ in result.cells
                if cell.protocol == "cyclon"} == {1.0}
        assert "Figure 7(b)" in result.to_text()

    def test_the_failure_figure_is_byte_identical_over_worker_counts(self, monkeypatch):
        # Eight warmed prefixes (4 protocols x 2 seed indices) in a process that
        # keeps one: the runner runs each prefix's six fractions back to back, so
        # each prefix warms once.
        built = self.count_builds(monkeypatch)
        spec = MatrixSpec(figures=("failure",), sizes=(6,), seeds=2, rounds=2,
                          latency="constant", root_seed=7)
        sequential = run_matrix(spec, workers=1)
        assert len(sequential.results) == 48 and len(built) == 8
        parallel = run_matrix(spec, workers=2)
        assert not sequential.failed and not parallel.failed
        assert aggregate_json_bytes(sequential) == aggregate_json_bytes(parallel)
        # Each prefix's six fractions run one seed, whichever worker ran them.
        seeds = {}
        for key, entry in sequential.aggregate["cells"].items():
            prefix = re.sub(r";failure_fraction=[^;]*", "", key)
            seeds.setdefault(prefix, set()).add(entry["seed"])
        assert sorted(map(len, seeds.values())) == [1] * 8


class TestCellsAreFreedBetweenCells:
    def test_a_finished_cells_cycles_are_dead_when_the_next_cell_starts(self):
        """A scenario graph is cyclic, so only the collector frees it. The runner
        collects before each cell: peak memory is one cell's, whatever the engine's
        allocation rate happens to do to the automatic generation-2 schedule."""

        class Graph:
            def __init__(self):
                self.owner = self

        earlier_cells = []
        alive_at_start = []

        def cyclic_cell(ctx):
            alive_at_start.append([ref() is not None for ref in earlier_cells])
            earlier_cells.append(weakref.ref(Graph()))
            payload = MetricPayload()
            payload.set_scalar("value", 1.0)
            return payload

        register_scenario("cyclic", cyclic_cell, description="test-only cycle maker")
        # With the automatic collector off, nothing but the runner can free a cycle.
        gc.disable()
        try:
            spec = small_spec(scenarios=("cyclic",), protocols=("croupier",), seeds=3)
            run = run_matrix(spec, workers=1)
        finally:
            gc.enable()
            unregister_scenario("cyclic")
        assert [r.ok for r in run.results] == [True, True, True]
        assert alive_at_start == [[], [False], [False, False]]


class TestAggregation:
    def test_percentile_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile([5.0], 90) == 5.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summaries_and_missing_metrics(self):
        rows = [{"a": 1.0, "b": 2.0}, {"a": 3.0}]
        aggregated = aggregate_metrics(rows)
        assert aggregated["a"]["count"] == 2
        assert aggregated["a"]["mean"] == pytest.approx(2.0)
        assert aggregated["b"]["count"] == 1
        summary = summarize_values([1.0, 2.0, 3.0])
        assert summary["min"] == 1.0 and summary["max"] == 3.0

    def test_aggregate_contains_no_wall_clock(self):
        run = run_matrix(small_spec(protocols=("croupier",), seeds=1), workers=1)
        aggregate = build_aggregate(run.spec, run.results)
        assert "wall" not in json.dumps(aggregate)
        assert aggregate["schema"] == "repro-matrix-aggregate-v2"

    def test_croupier_cells_report_estimation_error_metrics(self):
        run = run_matrix(small_spec(seeds=1), workers=1)
        by_protocol = {r.cell.protocol: r.metrics for r in run.results}
        assert "est_err_avg_final" in by_protocol["croupier"]
        assert "est_err_avg_p90" in by_protocol["croupier"]
        assert "est_err_avg_final" not in by_protocol["cyclon"]
        # The non-estimation metrics exist for every protocol.
        for metrics in by_protocol.values():
            assert "biggest_cluster_fraction" in metrics
            assert "all_bps" in metrics


class TestArtifactsAndCli:
    def test_write_artifacts(self, tmp_path):
        run = run_matrix(small_spec(protocols=("croupier",), seeds=1), workers=1)
        paths = write_artifacts(run, tmp_path)
        aggregate = json.loads(paths["aggregate"].read_text())
        assert aggregate["spec"]["root_seed"] == 7
        csv_text = paths["cells"].read_text()
        assert csv_text.splitlines()[0].startswith("cell_key,scenario,protocol")
        assert "# Experiment matrix summary" in paths["summary"].read_text()

    def test_cli_matrix_and_report_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "mx"
        rc = main([
            "matrix", "--scenarios", "static", "--protocols", "croupier",
            "--sizes", "40", "--seeds", "1", "--rounds", "4",
            "--latency", "constant", "--workers", "1", "--out", str(out_dir),
        ])
        assert rc == 0
        aggregate_path = out_dir / "matrix_aggregate.json"
        assert aggregate_path.exists()
        assert main(["report", str(aggregate_path)]) == 0
        captured = capsys.readouterr()
        assert "Experiment matrix summary" in captured.out

    @pytest.mark.parametrize("content", [
        '{"schema": "repro-matrix-journal-v1"}\n{"cell": "x"}\n',  # a journal
        '{"schema": "x"}',
        "[]",
        None,  # the golden Croupier run: JSON, no schema
    ])
    def test_report_refuses_what_is_not_an_aggregate(self, tmp_path, content, capsys):
        """A journal used to end in a JSONDecodeError traceback, another schema in
        an empty summary (exit 0 under --strict), and a diff of two of them in "no
        differences"; each is now a named error with exit status 2."""
        from repro.cli import main

        path = Path(__file__).parent / "data" / "golden_croupier_seed7.json"
        if content is not None:
            path = tmp_path / "not_an_aggregate.json"
            path.write_text(content)
        for argv in (["report", str(path)], ["report", "--strict", str(path)],
                     ["report", "--diff", str(path), str(path)]):
            assert main(argv) == 2
            assert "is not a matrix aggregate" in capsys.readouterr().err

    def test_report_renders_a_committed_aggregate(self, capsys):
        from repro.cli import main

        path = Path(__file__).parent.parent / "artifacts" / "baseline" / "matrix_aggregate.json"
        assert main(["report", "--strict", str(path)]) == 0
        assert "Experiment matrix summary" in capsys.readouterr().out
        assert main(["report", "--diff", str(path), str(path)]) == 0

    @pytest.mark.parametrize("argv", [
        ["matrix", "--seed", "7", "--dry-run"],
        ["matrix", "--seeds", "1", "--dry"],
        ["run", "churn", "--node", "40"],
        ["report", "--str"],
    ])
    def test_cli_refuses_abbreviated_flags(self, argv, capsys):
        """``--seed 7`` once parsed as ``--seeds 7``: a prefix of a flag is a
        usage error, never another flag."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_matrix_exit_code_on_failed_cells(self, tmp_path):
        from repro.cli import main

        register_scenario("cli-boom", lambda ctx: (_ for _ in ()).throw(RuntimeError("x")),
                          description="test-only crasher")
        try:
            rc = main([
                "matrix", "--scenarios", "cli-boom", "--protocols", "croupier",
                "--sizes", "10", "--seeds", "1", "--rounds", "2",
                "--latency", "constant", "--workers", "1",
                "--out", str(tmp_path / "mx"),
            ])
        finally:
            unregister_scenario("cli-boom")
        assert rc == 1

    def test_registry_rejects_duplicates(self):
        assert "static" in SCENARIOS
        with pytest.raises(ExperimentError):
            register_scenario("static", lambda ctx: {})


class TestColumnarNeedsNumpy:
    """numpy is optional for the package and required by ``engine='columnar'``:
    one named error, raised before any cell runs; the object engine never
    imports numpy."""

    MESSAGE = r"requires numpy.*\[columnar\] extra"

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        from repro.columnar import backend

        monkeypatch.setattr(backend, "np", None)

    def test_every_entry_point_raises_the_named_error(self, no_numpy):
        from repro.columnar import ColumnarEngine, ColumnarScenario
        from repro.workload.scenario import ScenarioConfig

        config = ScenarioConfig(protocol="croupier", seed=1, engine="columnar")
        for attempt in (
            lambda: ColumnarEngine("croupier", view_size=10, shuffle_size=5,
                                   rng=random.Random(1)),
            lambda: ColumnarScenario(config),
            CellSpec(scenario="static", protocol="croupier", size=20,
                     seed_index=0, rounds=4, engine="columnar").validate,
        ):
            with pytest.raises(ConfigurationError, match=self.MESSAGE):
                attempt()

    def test_cli_matrix_fails_before_any_cell(self, no_numpy, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "mx"
        rc = main([
            "matrix", "--scenarios", "static", "--protocols", "croupier",
            "--engines", "columnar", "--sizes", "20", "--seeds", "2",
            "--rounds", "4", "--latency", "constant", "--workers", "2",
            "--out", str(out_dir),
        ])
        assert rc != 0
        assert re.search(self.MESSAGE, capsys.readouterr().err)
        assert not (out_dir / "matrix_journal.jsonl").exists()

    def test_object_engine_runs_with_numpy_blocked(self):
        code = (
            "import sys; sys.modules['numpy'] = None\n"
            "from repro.errors import ConfigurationError\n"
            "from repro.workload.scenario import ScenarioConfig, create_scenario\n"
            "scenario = create_scenario(ScenarioConfig(protocol='croupier', seed=1,"
            " latency='constant'))\n"
            "scenario.populate(4, 16); scenario.run_rounds(3)\n"
            "assert scenario.live_count() == 20\n"
            "try:\n"
            "    create_scenario(ScenarioConfig(protocol='croupier', seed=1,"
            " engine='columnar'))\n"
            "except ConfigurationError as error:\n"
            "    assert 'numpy' in str(error)\n"
            "else:\n"
            "    raise SystemExit('columnar engine built without numpy')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
