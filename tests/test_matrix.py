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
from repro.experiments.matrix import (
    SCENARIOS,
    CellSpec,
    MatrixSpec,
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

    def test_paper_variants_expand(self):
        spec = small_spec(scenarios=("churn",), protocols=("croupier",), seeds=1,
                          variants="paper")
        cells = spec.cells()
        fractions = {c.param("churn_fraction") for c in cells}
        assert fractions == {0.001, 0.01, 0.025, 0.05}

    def test_ratio_variant_folds_into_public_ratio(self):
        spec = small_spec(scenarios=("ratio",), protocols=("croupier",), seeds=1,
                          variants="paper")
        ratios = {c.public_ratio for c in spec.cells()}
        assert 0.05 in ratios and 0.9 in ratios
        # No duplicate public_ratio field left in the params.
        assert all(c.param("public_ratio") is None for c in spec.cells())

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ExperimentError):
            small_spec(scenarios=("no-such-kind",)).validate()
        with pytest.raises(ExperimentError):
            small_spec(seeds=0).validate()
        with pytest.raises(ExperimentError):
            small_spec(protocols=("not-a-protocol",)).validate()
        with pytest.raises(ExperimentError):
            run_matrix(small_spec(), workers=0)


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

    def test_all_six_paper_variants_validate(self):
        spec = small_spec(scenarios=("failure",), protocols=("croupier",), seeds=1,
                          variants="paper")
        fractions = [cell.param("failure_fraction") for cell in spec.validate()]
        assert fractions == [0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

    @staticmethod
    def failure_cell(fraction: float, protocol: str = "croupier") -> CellSpec:
        return CellSpec(scenario="failure", protocol=protocol, size=30, seed_index=0,
                        rounds=6, params=(("failure_fraction", fraction),))

    def test_fractions_share_one_seed_in_run_cell_and_dry_run(self, monkeypatch, capsys):
        from repro.cli import main

        seeds = []
        monkeypatch.setitem(SCENARIOS, "failure", dataclasses.replace(
            SCENARIOS["failure"], runner=lambda ctx: seeds.append(ctx.seed) or {}))
        for fraction in (0.4, 0.9):
            run_cell(self.failure_cell(fraction), root_seed=7)
        run_cell(self.failure_cell(0.4, protocol="gozar"), root_seed=7)
        assert seeds[0] == seeds[1] != seeds[2]
        # Only the branch param is left out: the rest of the key still seeds the cell.
        assert seeds[0] == derive_cell_seed(
            7, "scenario=failure;protocol=croupier;size=30;seed=0;rounds=6;public_ratio=0.2")

        assert main(["matrix", "--scenarios", "failure", "--variants", "paper",
                     "--protocols", "croupier,gozar", "--sizes", "30", "--seeds", "2",
                     "--rounds", "6", "--root-seed", "7", "--dry-run"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 6 * 2 * 2
        by_branch = {}
        for key, seed, _ in rows:
            by_branch.setdefault(re.sub(r";failure_fraction=[^;]*", "", key), set()).add(seed)
        assert len(by_branch) == 4 and all(len(s) == 1 for s in by_branch.values())
        assert len(set().union(*by_branch.values())) == 4
        assert by_branch[
            "scenario=failure;protocol=croupier;size=30;seed=0;rounds=6;public_ratio=0.2"
        ] == {str(seeds[0])}

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_each_fraction_is_a_clone_of_one_warmed_scenario(self, engine):
        from repro.experiments.matrix import CellContext, cell_seed, measure_cell
        from repro.experiments.runner import ScenarioReuse
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
        reuse = ScenarioReuse()
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
            for cache in (None, reuse):  # standalone, then through the warmed prefix
                payload = run_cell(cell, root_seed=7, latency="constant", reuse=cache)
                assert payload.to_json_dict() == expected.to_json_dict()
        assert (reuse.builds, reuse.snapshot_hits) == (1, 2)

    def test_figure_warms_once_per_protocol(self, monkeypatch):
        from repro.experiments import figures
        from repro.experiments.runner import ScenarioReuse

        caches = []

        class CountingReuse(ScenarioReuse):
            def __init__(self):
                super().__init__()
                caches.append(self)

        monkeypatch.setattr(figures, "ScenarioReuse", CountingReuse)
        result = figures.run_figure("failure", nodes=30, rounds=6, seed=5,
                                    latency="constant", protocols=("croupier", "cyclon"),
                                    fractions=(0.4, 0.6, 0.8))
        (reuse,) = caches
        assert (reuse.builds, reuse.snapshot_hits) == (2, 4)
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

    def test_paper_variants_are_byte_identical_over_worker_counts(self, monkeypatch):
        from repro.experiments import runner

        # Six warmed prefixes (2 protocols x 3 seed indices), more than a worker's
        # snapshot LRU holds; the runner still runs each prefix's six fractions back
        # to back, so each prefix warms once.
        monkeypatch.setattr(runner, "_WORKER_REUSE", None)
        spec = small_spec(scenarios=("failure",), protocols=("croupier", "gozar"),
                          sizes=(20,), seeds=3, rounds=4, variants="paper")
        sequential = run_matrix(spec, workers=1)
        reuse = runner._worker_reuse()
        assert (reuse.builds, reuse.snapshot_hits) == (6, 30)
        parallel = run_matrix(spec, workers=2)
        assert not sequential.failed and not parallel.failed
        assert aggregate_json_bytes(sequential) == aggregate_json_bytes(parallel)
        # Each prefix's six fractions run one seed, whichever worker ran them.
        seeds = {}
        for key, entry in sequential.aggregate["cells"].items():
            prefix = re.sub(r";failure_fraction=[^;]*", "", key)
            seeds.setdefault(prefix, set()).add(entry["seed"])
        assert sorted(map(len, seeds.values())) == [1] * 6


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
            return {"value": 1.0}

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
