"""Self-test of the benchmark harness (< 5 s; also ``run.py --selftest``).

Lives under ``benchmarks/``, so ``benchmarks/conftest.py`` gives every test here
the ``bench`` marker and the tier-1 run deselects it; run it with
``pytest benchmarks/suite -m bench`` or ``python3 benchmarks/suite/run.py --selftest``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
for entry in (str(SUITE_DIR), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _tiny(workload: workloads.Workload) -> workloads.Workload:
    """The same workload shape at a size that runs in a fraction of a second."""
    if workload.matrix is not None:
        fields = dict(workload.matrix)
        fields.update(protocols=("croupier", "cyclon"), scenarios=("static",),
                      sizes=(20,), seeds=1, rounds=4)
        return dataclasses.replace(workload, matrix=tuple(fields.items()))
    cells = tuple(
        dataclasses.replace(
            cell, n_public=10, n_private=40, rounds=10,
            dynamics_scale=None if cell.dynamics_scale is None else 0.2,
        )
        for cell in workload.cells
    )
    return dataclasses.replace(workload, cells=cells)


def _span(tracer, name, start, end, parent):
    tracer.name_id.append(tracer._intern(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)


def test_self_time_on_a_synthetic_span_tree():
    tracer = spans.Tracer()
    _span(tracer, "harness.run", 0.0, 10.0, -1)
    _span(tracer, "a", 1.0, 4.0, 0)
    _span(tracer, "b", 2.0, 3.0, 1)
    _span(tracer, "a", 5.0, 9.0, 0)
    plain = tracer.layer_totals(spans.Calibration(0.0, 0.0))
    assert plain["harness.run"].self_s == 3.0
    assert (plain["a"].calls, plain["a"].total_s, plain["a"].self_s) == (2, 7.0, 6.0)
    assert plain["b"].self_s == 1.0
    # Self times telescope: they sum to the root span exactly.
    assert sum(t.self_s for t in plain.values()) == 10.0

    corrected = tracer.layer_totals(spans.Calibration(inner_s=0.1, outer_s=0.25))
    # Each span loses its own inner cost, each parent the outer cost per child.
    assert abs(corrected["harness.run"].self_s - (3.0 - 2 * 0.25 - 0.1)) < 1e-12
    assert abs(corrected["a"].self_s - (6.0 - 1 * 0.25 - 2 * 0.1)) < 1e-12
    assert abs(corrected["b"].self_s - (1.0 - 0.1)) < 1e-12
    assert spans.harness_self_s(plain) == 3.0


def test_calibration_is_small_and_positive():
    calibration = spans.calibrate(calls=5_000)
    assert 0.0 <= calibration.inner_s < 1e-4
    assert 0.0 <= calibration.outer_s < 1e-4


def test_wrappers_are_restored_after_a_traced_pass():
    for workload in workloads.WORKLOADS:
        targets = run.targets_for(workload)
        assert len({(owner, attr) for owner, attr, _ in targets}) == len(targets)
        before = [vars(owner)[attr] for owner, attr, _ in targets]
        _, values = run.traced_pass(_tiny(workload), 5, untraced_run_s=1.0, out=None)
        after = [vars(owner)[attr] for owner, attr, _ in targets]
        assert all(a is b for a, b in zip(before, after)), workload.name
        assert set(values) == {m.name for m in metrics.PER_LAYER}, workload.name
        assert values["trace.spans"] > 0
    # Restored even when the traced code raises.
    tracer = spans.Tracer()
    target = [(workloads.partition, "largest_cluster_fraction", "x")]
    original = workloads.partition.largest_cluster_fraction
    try:
        with tracer.installed(target):
            assert workloads.partition.largest_cluster_fraction is not original
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert workloads.partition.largest_cluster_fraction is original


def test_every_declared_metric_is_emitted_and_vice_versa():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert declared == metrics.benchmark_json()
    workload = _tiny(workloads.WORKLOADS_BY_NAME["obj-croupier-static"])
    unit, values = run.measure(workload, seed=5)
    assert set(values) == {m["name"] for m in declared["end_to_end"]}
    assert unit.operations == workload.operations == 10 and not unit.problems
    assert [w["name"] for w in declared["workloads"]] == [
        w.name for w in workloads.WORKLOADS
    ]
    assert workloads.WORKLOADS_BY_NAME["matrix-cells"].operations == 16


def test_a_run_without_a_result_fails_all_its_operations():
    workload = workloads.WORKLOADS_BY_NAME["obj-nylon-churn"]
    good = {
        "correct": True, "attempted": 50, "failed": 0,
        "metrics": {m.name: {"value": 2.0, "unit": m.unit}
                    for m in metrics.DRIVER_END_TO_END},
        "detail": {"sim_digest": "d", "counts": {"x": 1}, "est_abs_err": None,
                   "run_s": 1.0, "problems": []},
    }
    dead = {
        "correct": False, "attempted": 50, "failed": 50, "metrics": None,
        "detail": {"sim_digest": None, "counts": None, "est_abs_err": None,
                   "run_s": 0.0, "problems": ["the run exited 1 without a result"]},
    }
    traced = dict(good, metrics={"trace.spans": {"value": 3, "unit": "count"}})
    entry = run.summarise(workload, [good, dead, good], traced)
    assert entry["failed"] == 50 and entry["attempted"] == 200 and entry["problems"]
    assert entry["end_to_end"]["failed_frac"]["median"] == 0.25
    assert entry["end_to_end"]["setup_s"]["n"] == 2
    assert "est_abs_err" not in entry["end_to_end"]
    # Runs that disagree about the simulated bytes fail everything.
    other = dict(good, detail=dict(good["detail"], sim_digest="e"))
    assert run.summarise(workload, [good, other], traced)["failed"] == 150


def test_names_units_and_counts_meet_the_contract():
    spec = metrics.benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(m["better"] in ("higher", "lower")
               for m in spec["end_to_end"] + spec["per_layer"])
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert 1 <= spec["run_seconds"] <= 60
    assert len(json.dumps(spec)) < 64 * 1024


def test_compare_verdicts():
    by_name = {m.name: m for m in metrics.END_TO_END}

    def row(values):
        q1, median, q3 = metrics.quartiles(values)
        return {"median": median, "q1": q1, "q3": q3, "values": values}

    speed = by_name["node_rounds_per_s"]
    steady = row([100.0, 101.0, 99.0, 100.5, 99.5])
    assert compare.verdict(speed, steady, row([102.0, 101.0, 103.0, 102.5, 101.5])) == "unchanged"
    assert compare.verdict(speed, steady, row([120.0, 121.0, 119.0, 120.5, 122.0])) == "improved"
    assert compare.verdict(speed, steady, row([80.0, 81.0, 79.0, 80.5, 82.0])) == "regressed"
    noisy = row([100.0, 80.0, 120.0, 70.0, 130.0])
    assert compare.verdict(speed, noisy, row([105.0, 85.0, 125.0, 75.0, 128.0])) == "unresolved"
    # Wide spread, but every run of B beats every run of A: resolved.
    assert compare.verdict(speed, noisy, row([200.0, 180.0, 220.0, 170.0, 230.0])) == "improved"
    setup = by_name["setup_s"]
    assert compare.verdict(setup, row([1.0, 1.01, 0.99]), row([1.3, 1.31, 1.29])) == "regressed"
    # Below the 0.05 s floor a set-up time cannot regress, however wide its runs.
    assert compare.verdict(setup, row([0.052, 0.045, 0.055]), row([0.045, 0.06, 0.041])) == "unchanged"
    error = by_name["est_abs_err"]
    assert compare.verdict(error, row([0.010] * 5), row([0.0105] * 5)) == "unchanged"
    assert compare.verdict(error, row([0.010] * 5), row([0.0130] * 5)) == "regressed"
    cluster = by_name["biggest_cluster_frac"]
    assert compare.verdict(cluster, row([1.0] * 5), row([0.998] * 5)) == "regressed"
    failed = by_name["failed_frac"]
    assert compare.verdict(failed, row([0.0]), row([0.0])) == "unchanged"
    assert compare.verdict(failed, row([0.0]), row([0.01])) == "regressed"
