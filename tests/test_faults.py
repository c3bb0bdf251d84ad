"""Tests for the fault-tolerance layer: deterministic chaos injection, retry
classification, the watchdog, journal checkpoint/resume byte-parity, degraded
aggregates and the timeline-horizon warning."""

from __future__ import annotations

import json
import os
import re
import time

import pytest

from repro.errors import ExperimentError
from repro.experiments.checkpoint import (
    JOURNAL_SCHEMA,
    JournalWriter,
    load_journal,
    load_resumable,
    spec_digest,
)
from repro.experiments.faults import (
    FaultPlan,
    RetryPolicy,
    payload_digest,
)
from repro.experiments.matrix import (
    MatrixSpec,
    register_scenario,
    unregister_scenario,
)
from repro.experiments.runner import aggregate_json_bytes, run_matrix
from repro.metrics.payload import MetricPayload
from repro.workload.events import ChurnPhase, FailureSpike, JoinBurst
from repro.workload.timeline import Timeline
from repro.workload.scenario import Scenario, ScenarioConfig


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


class TestFaultPlan:
    def test_same_seed_same_injection_schedule(self):
        plan = FaultPlan(seed=3, crash_rate=0.3, hang_rate=0.2, corrupt_rate=0.3)
        cells = small_spec().cells()
        schedule = [plan.draw(cell.key, 0) for cell in cells]
        again = [
            FaultPlan(seed=3, crash_rate=0.3, hang_rate=0.2, corrupt_rate=0.3).draw(
                cell.key, 0
            )
            for cell in cells
        ]
        assert schedule == again

    def test_different_seed_different_schedule(self):
        cells = [cell.key for cell in small_spec(seeds=8).cells()]
        plans = [
            FaultPlan(seed=s, crash_rate=0.3, hang_rate=0.3, corrupt_rate=0.3)
            for s in (1, 2)
        ]
        assert [plans[0].draw(k, 0) for k in cells] != [
            plans[1].draw(k, 0) for k in cells
        ]

    def test_max_faults_per_cell_caps_injection(self):
        # Rates sum to 1.0: attempt 0 always faults, later attempts never do — the
        # property that guarantees chaos runs recover and stay byte-comparable.
        plan = FaultPlan(seed=1, crash_rate=0.5, hang_rate=0.25, corrupt_rate=0.25)
        for cell in small_spec().cells():
            assert plan.draw(cell.key, 0) is not None
            assert plan.draw(cell.key, 1) is None

    def test_parse_compact_and_json_forms(self, tmp_path):
        plan = FaultPlan.parse("seed=7,crash=0.2,hang=0.1,corrupt=0.2")
        assert plan == FaultPlan(seed=7, crash_rate=0.2, hang_rate=0.1,
                                 corrupt_rate=0.2)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_json_dict()))
        assert FaultPlan.parse(str(path)) == plan

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ExperimentError):
            FaultPlan.parse("crash=0.9,hang=0.9")  # rates sum past 1.0
        with pytest.raises(ExperimentError):
            FaultPlan.parse("nope=1")
        with pytest.raises(ExperimentError):
            FaultPlan.parse("missing-file.json")

    def test_corruption_changes_payload_but_not_digest_source(self):
        payload = {"scalars": {"a": 1.0}, "histograms": {}, "series": {}}
        digest = payload_digest(payload)
        corrupted = FaultPlan(seed=0, corrupt_rate=1.0).corrupt_payload(payload)
        assert corrupted != payload
        assert payload_digest(corrupted) != digest
        assert payload_digest(payload) == digest  # original untouched


class TestRetryPolicy:
    def test_backoff_is_deterministic_capped_and_jittered(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, max_delay_s=0.3,
                             jitter=0.5)
        delays = [policy.delay_s(7, "cell-key", attempt) for attempt in (1, 2, 3, 4)]
        assert delays == [policy.delay_s(7, "cell-key", a) for a in (1, 2, 3, 4)]
        # Exponential until the cap, never past cap * (1 + jitter).
        assert delays[0] < delays[1]
        assert all(d <= 0.3 * 1.5 for d in delays)
        # Jitter streams differ per cell.
        assert policy.delay_s(7, "other-key", 1) != delays[0]

    def test_validation(self):
        with pytest.raises(ExperimentError):
            RetryPolicy(max_attempts=0).validate()
        with pytest.raises(ExperimentError):
            RetryPolicy(jitter=-1).validate()


class TestDeterministicFailuresNotRetried:
    def test_cell_exception_fails_once_without_retry(self):
        calls_path = []

        def exploding_cell(ctx):
            raise RuntimeError("deterministic boom")

        register_scenario("det-boom", exploding_cell, description="test crasher")
        try:
            spec = small_spec(scenarios=("det-boom",), protocols=("croupier",),
                              seeds=1)
            run = run_matrix(spec, workers=2, retry=RetryPolicy(max_attempts=4))
        finally:
            unregister_scenario("det-boom")
        (result,) = run.results
        assert result.status == "failed"
        assert result.attempts == 1  # an exception is deterministic: never retried
        assert run.retries == 0
        assert "RuntimeError" in result.error


class TestChaosRecovery:
    def test_pool_chaos_run_is_byte_identical_to_fault_free(self):
        spec = small_spec()
        baseline = run_matrix(spec, workers=1)
        # crash + corruption chaos (no hangs: keeps the test fast; the watchdog has
        # its own test below); every cell faults once, so retries must all recover.
        plan = FaultPlan(seed=5, crash_rate=0.5, corrupt_rate=0.5)
        chaos = run_matrix(spec, workers=2, fault_plan=plan,
                           retry=RetryPolicy(max_attempts=3, base_delay_s=0.01))
        assert not chaos.failed and not chaos.degraded
        assert chaos.retries == len(spec.cells())
        assert aggregate_json_bytes(chaos) == aggregate_json_bytes(baseline)
        # Enriched diagnostics stay out of the aggregate bytes.
        text = json.dumps(chaos.aggregate)
        assert "pid" not in text and "wall" not in text and "attempts" not in text

    def test_a_single_cell_under_a_pool_really_crashes(self):
        spec = small_spec(protocols=("croupier",), seeds=1)
        baseline = run_matrix(spec, workers=1)
        chaos = run_matrix(spec, workers=2, fault_plan=FaultPlan(seed=1, crash_rate=1.0),
                           retry=RetryPolicy(max_attempts=2, base_delay_s=0.01))
        (result,) = chaos.results
        assert result.ok and result.attempts == 2 and result.faults == ("crash",)
        assert result.pid not in (None, os.getpid())  # a pool worker, not this process
        assert aggregate_json_bytes(chaos) == aggregate_json_bytes(baseline)


class TestSequentialRefusesPoolOptions:
    """``workers=1`` runs each cell once in this process: it cannot crash, hang or
    watchdog itself, so it refuses chaos, a retry policy and a positive cell timeout
    by name."""

    @pytest.mark.parametrize("options, flags, message", [
        ({"fault_plan": FaultPlan(seed=5, crash_rate=0.5)}, ("--chaos", "seed=5,crash=0.5"),
         "fault injection (--chaos) needs --workers > 1"),
        ({"cell_timeout_s": 5.0}, ("--cell-timeout", "5"),
         "a cell timeout (--cell-timeout) needs --workers > 1"),
        ({"retry": RetryPolicy(max_attempts=3)}, ("--retries", "3"),
         "a retry policy (--retries) needs --workers > 1"),
    ], ids=["chaos", "cell-timeout", "retries"])
    def test_run_matrix_and_the_cli_refuse(self, options, flags, message, tmp_path,
                                           capsys):
        from repro.cli import main

        with pytest.raises(ExperimentError, match=re.escape(message)):
            run_matrix(small_spec(), workers=1, **options)
        argv = ["matrix", "--scenarios", "static", "--sizes", "20", "--rounds", "2",
                "--latency", "constant", "--workers", "1", "--out", str(tmp_path), *flags]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "matrix_aggregate.json").exists()

    def test_a_disabled_timeout_runs(self):
        run = run_matrix(small_spec(protocols=("croupier",), seeds=1), workers=1,
                         cell_timeout_s=0)
        assert [result.status for result in run.results] == ["ok"]


class TestWatchdogAndDegradation:
    def test_hung_cell_is_killed_retried_and_degraded(self):
        def sleepy_cell(ctx):
            time.sleep(60.0)
            return MetricPayload()

        register_scenario("sleepy", sleepy_cell, description="test hanger")
        try:
            # Two cells on two workers: both hang at once, and the watchdog must
            # cut each short on its own.
            spec = small_spec(scenarios=("sleepy",), protocols=("croupier",), seeds=2)
            started = time.monotonic()
            run = run_matrix(spec, workers=2, cell_timeout_s=0.5,
                             retry=RetryPolicy(max_attempts=2, base_delay_s=0.01))
            elapsed = time.monotonic() - started
        finally:
            unregister_scenario("sleepy")
        assert elapsed < 30.0  # the watchdog cut every 60s sleep short
        aggregate = run.aggregate
        for result in run.results:
            assert result.status == "degraded"
            assert result.attempts == 2
            assert result.faults == ("timeout", "timeout")
            assert aggregate["degraded"][result.key] == {
                "attempts": 2,
                "faults": ["timeout", "timeout"],
            }
        assert aggregate["failed"] == []  # degraded is not deterministic failure

    def test_fault_free_aggregate_has_no_degraded_section(self):
        run = run_matrix(small_spec(protocols=("croupier",), seeds=1), workers=1)
        assert "degraded" not in run.aggregate


class TestJournalResume:
    def test_killed_run_resumes_byte_identically(self, tmp_path):
        spec = small_spec()
        baseline = run_matrix(spec, workers=1)
        journal = tmp_path / "journal.jsonl"
        run_matrix(spec, workers=2, journal_path=journal)

        # Simulate a kill after two cells, mid-write of the third record.
        lines = journal.read_text().splitlines()
        assert len(lines) == 1 + len(spec.cells())
        journal.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])

        resumed = run_matrix(spec, workers=2, journal_path=journal,
                             resume_from=journal)
        assert resumed.resumed == 2  # the truncated third record re-ran
        assert aggregate_json_bytes(resumed) == aggregate_json_bytes(baseline)
        # The journal is complete and readable again after the in-place resume.
        header, cells = load_journal(journal)
        assert header["schema"] == JOURNAL_SCHEMA
        assert len(cells) == len(spec.cells())

    def test_full_journal_replays_every_cell(self, tmp_path):
        spec = small_spec(protocols=("croupier",))
        journal = tmp_path / "journal.jsonl"
        first = run_matrix(spec, workers=1, journal_path=journal)
        replay = run_matrix(spec, workers=1, resume_from=journal)
        assert replay.resumed == len(spec.cells())
        assert aggregate_json_bytes(replay) == aggregate_json_bytes(first)

    def test_resume_rejects_a_different_spec(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_matrix(small_spec(protocols=("croupier",)), workers=1,
                   journal_path=journal)
        other = small_spec(protocols=("croupier",), rounds=8)
        with pytest.raises(ExperimentError):
            run_matrix(other, resume_from=journal)

    def test_journal_records_carry_execution_diagnostics(self, tmp_path):
        spec = small_spec(protocols=("croupier",), seeds=1)
        journal = tmp_path / "journal.jsonl"
        run_matrix(spec, workers=1, journal_path=journal)
        _, cells = load_journal(journal)
        (record,) = cells.values()
        assert record["status"] == "ok"
        assert record["attempts"] == 1 and record["faults"] == []
        assert isinstance(record["pid"], int)
        assert record["duration_s"] > 0
        assert payload_digest(record["payload"]) == record["payload_digest"]

    def test_failed_cells_are_terminal_on_resume(self, tmp_path):
        register_scenario("journal-boom",
                          lambda ctx: (_ for _ in ()).throw(RuntimeError("boom")),
                          description="test crasher")
        try:
            spec = small_spec(scenarios=("journal-boom",), protocols=("croupier",),
                              seeds=1)
            journal = tmp_path / "journal.jsonl"
            run_matrix(spec, workers=1, journal_path=journal)
            resumable = load_resumable(journal, spec)
            assert len(resumable) == 1  # deterministic failures replay, not re-run
            resumed = run_matrix(spec, workers=1, resume_from=journal)
            assert resumed.resumed == 1 and len(resumed.failed) == 1
        finally:
            unregister_scenario("journal-boom")

    def test_spec_digest_changes_with_the_grid(self):
        assert spec_digest(small_spec()) != spec_digest(small_spec(rounds=8))
        assert spec_digest(small_spec()) == spec_digest(small_spec())

    def test_writer_truncates_stale_journal_on_fresh_run(self, tmp_path):
        spec = small_spec(protocols=("croupier",), seeds=1)
        journal = tmp_path / "journal.jsonl"
        journal.write_text('{"schema": "stale"}\n')
        JournalWriter(journal, spec, total_cells=1).close()
        header, _ = load_journal(journal)
        assert header["schema"] == JOURNAL_SCHEMA


class TestHeartbeat:
    def test_heartbeat_emits_progress_lines(self):
        import io

        stream = io.StringIO()
        spec = small_spec(protocols=("croupier",))
        run_matrix(spec, workers=1, heartbeat_s=1e-6, heartbeat_stream=stream)
        output = stream.getvalue()
        assert "[matrix]" in output
        assert "cells" in output and "eta" in output


class TestHorizonWarning:
    def _scenario(self):
        scenario = Scenario(ScenarioConfig(protocol="croupier", seed=1,
                                           latency="constant"))
        scenario.populate(n_public=5, n_private=5)
        return scenario

    def test_event_beyond_horizon_warns(self):
        timeline = Timeline((ChurnPhase(fraction_per_round=0.01, start_round=61.0),))
        with pytest.warns(UserWarning, match="never fire"):
            timeline.install(self._scenario(), horizon_rounds=30)

    def test_scheduled_event_at_exact_horizon_warns(self):
        # A churn process starting exactly at the last boundary never acts.
        timeline = Timeline((JoinBurst(at_round=30.0, fraction=0.5),))
        with pytest.warns(UserWarning, match="never fire"):
            timeline.install(self._scenario(), horizon_rounds=30)

    def test_boundary_event_at_exact_horizon_is_fine(self):
        import warnings

        # fire_boundary(up_to_round=horizon) is inclusive, so this event DOES fire.
        timeline = Timeline((FailureSpike(at_round=30.0, fraction=0.5),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            timeline.install(self._scenario(), horizon_rounds=30)

    def test_no_horizon_no_warning(self):
        import warnings

        timeline = Timeline((ChurnPhase(fraction_per_round=0.01, start_round=61.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            timeline.install(self._scenario())
