"""Tests for the declarative workload-timeline API: event validation, canonical JSON
round trips, digests, installation semantics, the matrix ``--timelines`` axis (key
stability, worker parity) and the ``nat_indegree`` kind."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.matrix import CellContext, CellSpec, MatrixSpec, run_cell
from repro.experiments.runner import aggregate_json_bytes, run_matrix
from repro.workload import (
    ChurnPhase,
    ChurnProcess,
    FailureSpike,
    JoinBurst,
    LossBurst,
    Partition,
    PoissonJoin,
    RatioGrowth,
    Scenario,
    ScenarioConfig,
    Timeline,
    get_timeline,
    register_timeline,
    timeline_names,
    unregister_timeline,
)


def small_scenario(seed: int = 3, n_public: int = 5, n_private: int = 15) -> Scenario:
    scenario = Scenario(ScenarioConfig(seed=seed, latency="constant"))
    scenario.populate(n_public=n_public, n_private=n_private)
    return scenario


def _pending(sim):
    """Events still to fire: queued and neither cancelled nor run."""
    return sum(1 for _, _, handle in sim._queue if handle.callback is not None)


def _outcome(installed, event):
    """The recorded outcome of the boundary ``event`` (``None`` before it fired)."""
    return next((outcome for fired, outcome in installed.outcomes if fired is event), None)


class TestSerialization:
    def test_round_trip_is_byte_identical_for_every_preset(self):
        for name in timeline_names():
            timeline = get_timeline(name)
            text = timeline.to_json()
            parsed = Timeline.from_json(text)
            assert parsed == timeline
            assert parsed.to_json() == text  # parse -> serialize: exact bytes

    def test_canonical_form_and_digest_are_pinned(self):
        # The digest feeds matrix cell keys and therefore derived seeds; a drift
        # would silently re-seed every timeline cell in archived aggregates.
        timeline = get_timeline("paper-churn")
        assert timeline.to_json() == (
            '{"events":[{"fraction_per_round":0.01,"ramp_rounds":0.0,'
            '"start_round":61.0,"stop_round":null,"type":"churn_phase"}],'
            '"schema":"repro-timeline-v1"}'
        )
        assert timeline.digest == "d347e90c1f"

    def test_integer_round_times_serialize_canonically(self):
        # JSON authors write {"at_round": 61}; the parsed event must serialize to
        # the same bytes as one built with 61.0 (floats are coerced on construction).
        text = json.dumps({
            "schema": "repro-timeline-v1",
            "events": [{"type": "failure_spike", "at_round": 61, "fraction": 0.5}],
        })
        parsed = Timeline.from_json(text)
        assert parsed == Timeline((FailureSpike(at_round=61.0, fraction=0.5),))
        assert parsed.to_json() == Timeline.from_json(parsed.to_json()).to_json()

    def test_unknown_schema_and_event_type_rejected(self):
        with pytest.raises(ConfigurationError):
            Timeline.from_json('{"schema": "repro-timeline-v99", "events": []}')
        with pytest.raises(ConfigurationError):
            Timeline.from_json(
                '{"schema": "repro-timeline-v1", "events": [{"type": "meteor"}]}'
            )
        with pytest.raises(ConfigurationError):
            Timeline.from_json(
                '{"schema": "repro-timeline-v1", '
                '"events": [{"type": "churn_phase", "no_such_field": 1}]}'
            )
        with pytest.raises(ConfigurationError):
            Timeline.from_json("not json at all")

    def test_digest_depends_on_content_only(self):
        a = Timeline((ChurnPhase(fraction_per_round=0.01),))
        b = Timeline((ChurnPhase(fraction_per_round=0.01),))
        c = Timeline((ChurnPhase(fraction_per_round=0.02),))
        assert a.digest == b.digest
        assert a.digest != c.digest
        assert len(a.digest) == 10


class TestEventValidation:
    def test_churn_phase_windows(self):
        with pytest.raises(ExperimentError):
            ChurnPhase(fraction_per_round=0.01, start_round=10.0, stop_round=5.0).validate()
        with pytest.raises(ExperimentError):
            ChurnPhase(fraction_per_round=0.01, start_round=10.0, stop_round=10.0).validate()
        with pytest.raises(ExperimentError):
            ChurnPhase(fraction_per_round=1.5).validate()
        with pytest.raises(ExperimentError):
            ChurnPhase(fraction_per_round=0.01, ramp_rounds=-1.0).validate()
        ChurnPhase(fraction_per_round=0.01, start_round=10.0, stop_round=20.0).validate()

    def test_join_burst_needs_exactly_one_size(self):
        with pytest.raises(ExperimentError):
            JoinBurst(at_round=5.0).validate()  # neither count nor fraction
        with pytest.raises(ExperimentError):
            JoinBurst(at_round=5.0, count=10, fraction=0.5).validate()  # both
        JoinBurst(at_round=5.0, count=10).validate()
        JoinBurst(at_round=5.0, fraction=0.5).validate()

    def test_loss_burst_and_partition_windows(self):
        with pytest.raises(ExperimentError):
            LossBurst(start_round=10.0, stop_round=10.0, loss_rate=0.1).validate()
        with pytest.raises(ExperimentError):
            LossBurst(start_round=0.0, stop_round=5.0, loss_rate=1.5).validate()
        with pytest.raises(ExperimentError):
            Partition(start_round=9.0, stop_round=3.0).validate()
        with pytest.raises(ExperimentError):
            FailureSpike(at_round=5.0, fraction=-0.1).validate()

    def test_poisson_join_validation(self):
        with pytest.raises(ExperimentError):
            PoissonJoin(public=True, count=-1, mean_interarrival_ms=10.0).validate()
        with pytest.raises(ExperimentError):
            PoissonJoin(public=True, count=1, mean_interarrival_ms=0.0).validate()
        with pytest.raises(ExperimentError):
            RatioGrowth(count=5, interval_ms=0.0).validate()

    def test_install_validates(self):
        scenario = small_scenario()
        bad = Timeline((ChurnPhase(fraction_per_round=2.0),))
        with pytest.raises(ExperimentError):
            bad.install(scenario)

    def test_integral_counts_coerced_fractional_rejected(self):
        assert PoissonJoin(public=True, count=100.0, mean_interarrival_ms=5.0).count == 100
        assert RatioGrowth(count=3.0).count == 3
        assert JoinBurst(at_round=1.0, count=2.0).count == 2
        with pytest.raises(ExperimentError):
            PoissonJoin(public=True, count=2.5, mean_interarrival_ms=5.0)
        with pytest.raises(ExperimentError):
            RatioGrowth(count="many")

    def test_overlapping_exclusive_windows_rejected(self):
        overlapping_loss = Timeline((
            LossBurst(start_round=10.0, stop_round=30.0, loss_rate=0.2),
            LossBurst(start_round=20.0, stop_round=40.0, loss_rate=0.5),
        ))
        with pytest.raises(ExperimentError):
            overlapping_loss.validate()
        overlapping_partition = Timeline((
            Partition(start_round=5.0, stop_round=15.0),
            Partition(start_round=10.0, stop_round=20.0),
        ))
        with pytest.raises(ExperimentError):
            overlapping_partition.validate()
        # Disjoint windows (even back to back) are fine.
        Timeline((
            LossBurst(start_round=10.0, stop_round=20.0, loss_rate=0.2),
            LossBurst(start_round=20.0, stop_round=30.0, loss_rate=0.5),
        )).validate()


class TestInstallationSemantics:
    def test_zero_fraction_churn_phase_schedules_nothing(self):
        scenario = small_scenario()
        pending_before = _pending(scenario.sim)
        installed = Timeline((ChurnPhase(fraction_per_round=0.0),)).install(scenario)
        assert _pending(scenario.sim) == pending_before
        assert installed.processes == []

    def test_boundary_events_fire_once_in_round_order(self):
        scenario = small_scenario(n_public=6, n_private=14)
        early = FailureSpike(at_round=3.0, fraction=0.25)
        late = FailureSpike(at_round=6.0, fraction=0.5)
        installed = Timeline((late, early)).install(scenario)
        assert [e.at_round for e in installed.pending_boundary] == [3.0, 6.0]
        scenario.run_rounds(3)
        fired = installed.fire_boundary(3)
        assert len(fired) == 1 and _outcome(installed, early) is fired[0]
        assert installed.fire_boundary(3) == []  # idempotent
        scenario.run_rounds(3)
        installed.fire_boundary(6)
        assert _outcome(installed, late) is not None
        assert installed.pending_boundary == []

    def test_failure_spike_matches_imperative_call(self):
        from repro.workload import catastrophic_failure

        imperative = small_scenario(seed=11)
        imperative.run_rounds(5)
        outcome_imperative = catastrophic_failure(imperative, 0.5)

        declarative = small_scenario(seed=11)
        spike = FailureSpike(at_round=5.0, fraction=0.5)
        installed = Timeline((spike,)).install(declarative)
        declarative.run_rounds(5)
        installed.fire_boundary(5)
        outcome_declarative = _outcome(installed, spike)
        assert outcome_declarative.killed_node_ids == outcome_imperative.killed_node_ids
        assert (
            outcome_declarative.biggest_cluster_fraction
            == outcome_imperative.biggest_cluster_fraction
        )

    def test_advance_rounds_fires_boundaries_at_their_declared_round(self):
        # A single 10-round advance must still apply the spike at round 4, then
        # keep gossiping: survivors repair their views for the remaining rounds.
        scenario = small_scenario(seed=13, n_public=6, n_private=14)
        spike = FailureSpike(at_round=4.0, fraction=0.5)
        installed = Timeline((spike,)).install(scenario)
        installed.advance_rounds(10)
        assert scenario.now == pytest.approx(10 * scenario.round_ms)
        outcome = _outcome(installed, spike)
        assert outcome is not None and outcome.survivors == 10
        assert installed.pending_boundary == []
        # Boundaries beyond the advance stay pending.
        scenario2 = small_scenario(seed=13, n_public=6, n_private=14)
        late = FailureSpike(at_round=20.0, fraction=0.5)
        installed2 = Timeline((late,)).install(scenario2)
        installed2.advance_rounds(10)
        assert installed2.pending_boundary == [late]
        assert scenario2.live_count() == 20

    def test_join_burst_grows_population(self):
        scenario = small_scenario(n_public=4, n_private=12)
        Timeline((JoinBurst(at_round=2.0, fraction=0.5, spread_rounds=1.0),)).install(scenario)
        scenario.run_rounds(5)
        assert scenario.live_count() == 24  # 16 + round(0.5 * 16)

    def test_loss_burst_swaps_and_restores_loss_model(self):
        from repro.simulator.loss import BernoulliLoss, NoLoss

        scenario = small_scenario()
        Timeline((LossBurst(start_round=2.0, stop_round=4.0, loss_rate=0.5),)).install(scenario)
        assert isinstance(scenario.network.loss_model, NoLoss)
        scenario.run_rounds(3)
        assert isinstance(scenario.network.loss_model, BernoulliLoss)
        drops_during = scenario.monitor.drop_reasons.get("link_loss", 0)
        assert drops_during > 0
        scenario.run_rounds(3)
        assert isinstance(scenario.network.loss_model, NoLoss)

    def test_partition_splits_then_heals(self):
        scenario = small_scenario(seed=5, n_public=6, n_private=14)
        Timeline((Partition(start_round=2.0, stop_round=5.0, fraction=0.5),)).install(scenario)
        scenario.run_rounds(4)
        assert scenario.network.partition is not None
        assert scenario.monitor.drop_reasons.get("partitioned", 0) > 0
        scenario.run_rounds(2)
        assert scenario.network.partition is None

    def test_same_timeline_installs_identically_on_clones(self):
        # The clone/branching contract: a warmed prefix plus a timeline suffix must
        # replay identically on every clone, and never disturb the original.
        warmed = small_scenario(seed=9, n_public=6, n_private=14)
        warmed.run_rounds(10)
        live_before = warmed.live_count()
        pending_before = _pending(warmed.sim)
        suffix = Timeline((FailureSpike(at_round=10.0, fraction=0.6),))

        outcomes = []
        for _ in range(2):
            branch = warmed.clone()
            installed = suffix.install(branch)
            installed.fire_boundary(10)
            outcomes.append(installed.outcomes[0][1])
        assert outcomes[0].killed_node_ids == outcomes[1].killed_node_ids
        assert (
            outcomes[0].biggest_cluster_fraction == outcomes[1].biggest_cluster_fraction
        )
        assert warmed.live_count() == live_before
        assert _pending(warmed.sim) == pending_before


class TestChurnEdgeCases:
    def test_stop_before_start_rejected(self):
        scenario = small_scenario()
        with pytest.raises(ExperimentError):
            ChurnProcess(scenario, fraction_per_round=0.1, start_ms=5_000.0, stop_ms=1_000.0)
        with pytest.raises(ExperimentError):
            ChurnProcess(scenario, fraction_per_round=0.1, start_ms=5_000.0, stop_ms=5_000.0)

    def test_start_mid_round_anchors_tick_grid(self):
        scenario = small_scenario()
        process = ChurnProcess(scenario, fraction_per_round=0.2, start_ms=500.0)
        scenario.run_ms(500.0 + 3 * scenario.round_ms + 1.0)
        # Ticks at 500, 1500, 2500, 3500 — four executions within the window.
        assert process.rounds_executed == 4

    def test_ramp_reaches_full_rate(self):
        scenario = small_scenario()
        process = ChurnProcess(
            scenario, fraction_per_round=0.4, start_ms=0.0, ramp_rounds=4.0
        )
        assert process._effective_fraction() == pytest.approx(0.1)
        process.rounds_executed = 3
        assert process._effective_fraction() == pytest.approx(0.4)
        process.rounds_executed = 10
        assert process._effective_fraction() == pytest.approx(0.4)

    def test_negative_ramp_rejected(self):
        scenario = small_scenario()
        with pytest.raises(ExperimentError):
            ChurnProcess(scenario, fraction_per_round=0.1, ramp_rounds=-2.0)

    def test_kill_random_fraction_on_empty_scenario(self):
        scenario = Scenario(ScenarioConfig(seed=1, latency="constant"))
        assert scenario.kill_random_fraction(0.5) == []
        assert scenario.live_count() == 0


class TestRegistry:
    def test_builtin_presets_registered(self):
        assert {"paper-churn", "paper-failure", "flash-crowd", "diurnal",
                "partition-heal"} <= set(timeline_names())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_timeline("paper-churn", Timeline())
        with pytest.raises(ConfigurationError):
            get_timeline("no-such-timeline")

    def test_register_and_unregister(self):
        timeline = Timeline((ChurnPhase(fraction_per_round=0.05, start_round=1.0),))
        register_timeline("test-tl", timeline, description="test only")
        try:
            assert get_timeline("test-tl") is timeline
        finally:
            unregister_timeline("test-tl")
        assert "test-tl" not in timeline_names()


class TestMatrixAxis:
    def test_default_timeline_leaves_legacy_keys_unchanged(self):
        cell = CellSpec(scenario="static", protocol="croupier", size=50, seed_index=0,
                        rounds=6)
        assert "timeline" not in cell.key
        assert cell.key == (
            "scenario=static;protocol=croupier;size=50;seed=0;rounds=6;public_ratio=0.2"
        )

    def test_timeline_cells_key_name_and_digest(self):
        cell = CellSpec(scenario="static", protocol="croupier", size=50, seed_index=0,
                        rounds=6, timeline="paper-churn")
        assert cell.key.endswith("timeline=paper-churn@d347e90c1f")
        with pytest.raises(ExperimentError):
            CellSpec(scenario="static", protocol="croupier", size=50, seed_index=0,
                     rounds=6, timeline="no-such").validate()

    def test_axis_expansion_and_spec_section(self):
        spec = MatrixSpec(
            scenarios=("static",), protocols=("croupier",), sizes=(30,), seeds=1,
            rounds=4, latency="constant", root_seed=7,
            timelines=("none", "flash-crowd"),
        )
        cells = spec.validate()
        assert [c.timeline for c in cells] == ["none", "flash-crowd"]
        run = run_matrix(spec, workers=1)
        assert not run.failed
        aggregate = run.aggregate
        assert aggregate["spec"]["timelines"] == ["none", "flash-crowd"]
        timeline_groups = [g for g in aggregate["groups"] if "timeline=flash-crowd@" in g]
        assert timeline_groups

    def test_legacy_spec_section_has_no_timelines_field(self):
        spec = MatrixSpec(scenarios=("static",), protocols=("croupier",), sizes=(30,),
                          seeds=1, rounds=3, latency="constant", root_seed=7)
        run = run_matrix(spec, workers=1)
        assert "timelines" not in run.aggregate["spec"]

    def test_worker_parity_with_timeline_cells(self):
        spec = MatrixSpec(
            scenarios=("static",), protocols=("croupier",), sizes=(30,), seeds=2,
            rounds=6, latency="constant", root_seed=7,
            timelines=("none", "flash-crowd"),
        )
        sequential = run_matrix(spec, workers=1)
        parallel = run_matrix(spec, workers=4)
        assert not sequential.failed and not parallel.failed
        assert aggregate_json_bytes(sequential) == aggregate_json_bytes(parallel)

    def test_run_cell_with_timeline_changes_results_not_structure(self):
        base = dict(scenario="static", protocol="croupier", size=40, seed_index=0,
                    rounds=8)
        plain = run_cell(CellSpec(**base), root_seed=7, latency="constant")
        crowd = run_cell(CellSpec(timeline="flash-crowd", **base), root_seed=7,
                         latency="constant")
        assert set(plain.scalars) == set(crowd.scalars)
        assert plain.scalars["live_nodes"] == 40.0
        # flash-crowd is authored for a 60-round horizon; on this 8-round cell it
        # compresses (factor 8/60), so the burst fires at round 4 and the 50%
        # extra population is present at measurement time.
        assert crowd.scalars["live_nodes"] == 60.0


class TestCliIntegration:
    def test_dry_run_prints_keys_seeds_digests_and_writes_nothing(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "mx"
        rc = main([
            "matrix", "--scenarios", "static", "--protocols", "croupier",
            "--sizes", "40", "--seeds", "2", "--rounds", "4",
            "--latency", "constant", "--timelines", "none,paper-churn",
            "--dry-run", "--out", str(out_dir),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        rows = [line.split("\t") for line in captured.out.strip().splitlines()]
        assert len(rows) == 4  # 2 timelines x 2 seeds
        assert all(len(row) == 3 for row in rows)
        assert {row[2] for row in rows} == {"-", "d347e90c1f"}
        assert all(row[1].isdigit() for row in rows)
        assert not out_dir.exists()  # nothing ran, nothing written

    def test_timeline_json_file_axis_value(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workload.timeline import unregister_timeline

        document = Timeline((ChurnPhase(fraction_per_round=0.02, start_round=2.0),))
        path = tmp_path / "my-dynamics.json"
        path.write_text(document.to_json())
        try:
            rc = main([
                "matrix", "--scenarios", "static", "--protocols", "croupier",
                "--sizes", "30", "--seeds", "1", "--rounds", "4",
                "--latency", "constant", "--timelines", str(path),
                "--workers", "1", "--out", str(tmp_path / "mx"),
            ])
        finally:
            unregister_timeline("file:my-dynamics")
        assert rc == 0
        aggregate = json.loads((tmp_path / "mx" / "matrix_aggregate.json").read_text())
        assert aggregate["spec"]["timelines"] == ["file:my-dynamics"]
        (key,) = [k for k in aggregate["cells"]]
        assert f"timeline=file:my-dynamics@{document.digest}" in key


    def test_timeline_file_stem_collision_rejected(self, tmp_path):
        from repro.cli import _resolve_timeline_value
        from repro.workload.timeline import unregister_timeline

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = tmp_path / "a" / "dynamics.json"
        second = tmp_path / "b" / "dynamics.json"
        first.write_text(Timeline((ChurnPhase(fraction_per_round=0.01),)).to_json())
        second.write_text(Timeline((ChurnPhase(fraction_per_round=0.05),)).to_json())
        try:
            assert _resolve_timeline_value(str(first)) == "file:dynamics"
            from repro.errors import ReproError

            with pytest.raises(ReproError):
                _resolve_timeline_value(str(second))
            # Re-resolving the same file is fine (idempotent).
            assert _resolve_timeline_value(str(first)) == "file:dynamics"
        finally:
            unregister_timeline("file:dynamics")


class TestNatInDegreeKind:
    def test_cell_reports_relative_indegrees(self):
        cell = CellSpec(scenario="nat_indegree", protocol="croupier", size=60,
                        seed_index=0, rounds=10)
        payload = run_cell(cell, root_seed=7, latency="constant")
        assert "indeg_mean_public" in payload.scalars
        assert "symmetric_underrepresentation" in payload.scalars
        relative = [n for n in payload.scalars if n.startswith("indeg_rel_")]
        assert relative and all(payload.scalars[n] >= 0.0 for n in relative)
        assert "indeg_rel_public" not in payload.scalars

    def test_explicit_mixture_axis_is_respected(self):
        cell = CellSpec(scenario="nat_indegree", protocol="croupier", size=60,
                        seed_index=0, rounds=8, nat_mixture="uniform")
        payload = run_cell(cell, root_seed=7, latency="constant")
        assert "indeg_mean_public" in payload.scalars

    def test_report_section_renders(self):
        from repro.experiments.report import matrix_markdown_summary

        spec = MatrixSpec(scenarios=("nat_indegree",), protocols=("croupier",),
                          sizes=(60,), seeds=1, rounds=8, latency="constant",
                          root_seed=7)
        run = run_matrix(spec, workers=1)
        assert not run.failed
        summary = matrix_markdown_summary(run.aggregate)
        assert "## NAT-class in-degree (symmetric-NAT underrepresentation)" in summary
        assert "symmetric" in summary

    def test_harness_to_text(self):
        from repro.experiments import run_figure

        result = run_figure("nat-indegree", nodes=60, rounds=8, latency="constant",
                            protocols=("croupier",))
        assert "Symmetric-NAT underrepresentation" in result.to_text()
        scalars = result.by("protocol")["croupier"].scalars
        assert scalars["symmetric_underrepresentation"] == pytest.approx(
            1.0 - scalars["indeg_mean_symmetric"] / scalars["indeg_mean_public"]
        )


class TestHorizonScaling:
    """Presets authored for a long horizon compress onto shorter cells; absolute
    paper presets never scale (their round numbers ARE the figure)."""

    def test_event_scaled_multiplies_round_fields_only(self):
        wave = ChurnPhase(fraction_per_round=0.02, start_round=20.0,
                          stop_round=50.0, ramp_rounds=10.0)
        half = wave.scaled(0.5)
        assert half.start_round == 10.0
        assert half.stop_round == 25.0
        assert half.ramp_rounds == 5.0
        assert half.fraction_per_round == 0.02  # a rate, not a round

    def test_event_scaled_skips_none_and_rejects_non_positive(self):
        open_ended = ChurnPhase(fraction_per_round=0.01, start_round=61.0)
        assert open_ended.scaled(0.5).stop_round is None
        with pytest.raises(ExperimentError):
            open_ended.scaled(0.0)
        with pytest.raises(ExperimentError):
            open_ended.scaled(-1.0)

    def test_timeline_scaled_identity_at_factor_one(self):
        timeline = get_timeline("diurnal")
        assert timeline.scaled(1.0) is timeline
        compressed = timeline.scaled(0.5)
        assert [e.start_round for e in compressed.events] == [10.0, 35.0]
        assert [e.stop_round for e in compressed.events] == [25.0, 50.0]

    def test_preset_authored_horizons(self):
        from repro.workload.timeline import TIMELINES

        authored = {name: TIMELINES[name].authored_horizon_rounds
                    for name in timeline_names()}
        assert authored["flash-crowd"] == 60.0
        assert authored["diurnal"] == 120.0
        assert authored["partition-heal"] == 60.0
        # Paper presets carry absolute round numbers (t=61 IS Figure 5/7(b)).
        assert authored["paper-churn"] is None
        assert authored["paper-failure"] is None

    def test_timeline_for_horizon_compresses_only_shorter(self):
        from repro.workload.timeline import TIMELINES

        preset = TIMELINES["diurnal"]
        # Horizon >= authored (or unknown): the authored timeline, verbatim.
        assert preset.timeline_for_horizon(120.0) is preset.timeline
        assert preset.timeline_for_horizon(500.0) is preset.timeline
        assert preset.timeline_for_horizon(None) is preset.timeline
        # Shorter horizon: both waves land inside the run, shape preserved.
        at_60 = preset.timeline_for_horizon(60.0)
        assert [e.start_round for e in at_60.events] == [10.0, 35.0]
        assert [e.stop_round for e in at_60.events] == [25.0, 50.0]
        assert [e.ramp_rounds for e in at_60.events] == [5.0, 5.0]

    def test_paper_presets_never_scale(self):
        from repro.workload.timeline import TIMELINES

        preset = TIMELINES["paper-churn"]
        assert preset.timeline_for_horizon(10.0) is preset.timeline
        assert preset.timeline.events[0].start_round == 61.0

    def test_cell_context_installs_scaled_timeline(self):
        cell = CellSpec(scenario="static", protocol="croupier", size=30,
                        seed_index=0, rounds=60, timeline="diurnal")
        ctx = CellContext(cell=cell, seed=99, latency="constant")
        installed = ctx.timeline
        assert [e.start_round for e in installed.events] == [10.0, 35.0]

    def test_cell_key_digest_still_hashes_authored_timeline(self):
        # Scaling is an install-time detail: the digest in the cell key (and so
        # the derived seed) must come from the authored timeline, or shortening
        # a run would silently re-seed every cell.
        authored_digest = get_timeline("diurnal").digest
        cell = CellSpec(scenario="static", protocol="croupier", size=30,
                        seed_index=0, rounds=60, timeline="diurnal")
        assert f"timeline=diurnal@{authored_digest}" in cell.key

    def test_scaled_preset_cell_runs_green(self):
        # The second diurnal wave (authored rounds 70-100) would never fire in a
        # 30-round cell; compression pulls it to rounds 17.5-25.
        cell = CellSpec(scenario="static", protocol="croupier", size=30,
                        seed_index=0, rounds=30, timeline="diurnal")
        payload = run_cell(cell, root_seed=7, latency="constant")
        assert payload.scalars["live_nodes"] == 30.0
