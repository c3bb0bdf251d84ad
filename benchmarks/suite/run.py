#!/usr/bin/env python3
"""The repository benchmark: one command, five workloads, checked outputs.

Two ways to run it, same code underneath:

``python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process - the form the benchmark driver
    calls (``BENCHMARK.json``). A run is always exactly one unit of the workload:
    the workload size fixes how long it measures, and ``--seconds`` is accepted
    and ignored. ``--trace 0`` reports the end-to-end metrics as the last line of
    standard output, one JSON object. ``--trace 1`` runs the unit under the
    tracer and reports the per-layer metrics instead.

``python3 benchmarks/suite/run.py [--seed 3] [--out DIR]``
    The whole suite: every workload 5 times, round-robin, each run a fresh child
    process of the form above (so ``peak_rss_mb`` and GC state never leak between
    runs), then one traced pass per workload. Prints every metric by name with
    its unit, writes ``DIR/bench_suite.json`` (what ``compare.py`` reads) and
    ``DIR/trace_<workload>.jsonl``, and exits non-zero if any output check failed.

``--selftest`` runs the harness's own checks (< 5 s).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Workload  # noqa: E402

#: Untraced runs per workload in a suite run.
REPEATS = 5

#: No run takes 30 s on the reference box; one that takes this long is hung.
CHILD_TIMEOUT_S = 600


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# ---------------------------------------------------------------------- one run


def measure(workload: Workload, seed: int):
    """The untraced run: one unit, then the extra set-ups ``setup_s`` is the
    median of. Returns the unit and its end-to-end values."""
    unit = workloads.run_unit(workload, seed, spans.Tracer())
    # Read before the extra set-ups, so that they cannot raise it.
    rss = peak_rss_mb(workload.matrix is not None)
    setup_samples = [unit.setup_s]
    started = time.perf_counter()
    while (len(setup_samples) < metrics.SETUP_SAMPLES_MIN
           or time.perf_counter() - started < metrics.SETUP_SECONDS):
        setup_samples.append(workloads.time_setup(workload, seed))
    return unit, metrics.end_to_end_values(unit, setup_samples, rss)


def targets_for(workload: Workload):
    """The wrapper targets of a workload: every workload runs on one engine."""
    if workload.matrix is not None:
        return spans.matrix_targets()
    if workload.cells[0].engine == "columnar":
        return spans.columnar_targets()
    return spans.object_targets()


def traced_pass(workload: Workload, seed: int, untraced_run_s: float,
                out: Optional[Path]):
    """One unit under the tracer. ``untraced_run_s`` is the timed region of the
    untraced pass, which the tracing overhead and the ``us_per_*`` figures are
    taken against. Returns the unit and its per-layer values."""
    calibration = spans.calibrate()
    tracer = spans.Tracer()
    with tracer.installed(targets_for(workload)):
        unit = workloads.run_unit(workload, seed, tracer)
    values = metrics.per_layer_values(unit, untraced_run_s, tracer, calibration)
    unattributed = values["trace.unattributed_frac"]
    if abs(unattributed) > 0.01:
        unit.problems.append(
            f"layer self times miss the root span by {unattributed:.2%} (> 1%)"
        )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(out / f"trace_{workload.name}.jsonl", calibration)
    return unit, values


def run_one(args) -> int:
    workload = workloads.WORKLOADS_BY_NAME[args.workload]
    if not args.trace:
        (unit, values), specs = measure(workload, args.seed), metrics.DRIVER_END_TO_END
    else:
        untraced = None
        if args.untraced_run_s is None:
            # Nobody measured the untraced pass for this run (the driver's form):
            # one fresh-process run gives its timed region and its digest.
            untraced = child(workload, args.seed, 0, args.out)["detail"]
        unit, values = traced_pass(
            workload, args.seed,
            args.untraced_run_s if untraced is None else untraced["run_s"], args.out,
        )
        if untraced is not None:
            unit.problems += untraced["problems"]
            if untraced["sim_digest"] != unit.sim_digest:
                unit.problems.append("sim_digest differs from the untraced run")
        specs = metrics.PER_LAYER
    for problem in unit.problems:
        print(f"CHECK FAILED [{workload.name}]: {problem}", file=sys.stderr)
    detail = {
        "sim_digest": unit.sim_digest,
        "counts": unit.counts,
        "est_abs_err": unit.est_abs_err,
        "run_s": unit.run_s,
        "problems": unit.problems,
    }
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not unit.problems,
        "attempted": unit.operations,
        "failed": unit.operations if unit.problems else 0,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in specs},
    }))
    return 1 if unit.problems else 0


# ---------------------------------------------------------------------- the suite


def manifest(seed: int) -> Dict[str, object]:
    """Telemetry about the host and the run - never part of a digest."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
        "repeats": REPEATS,
    }


def child(workload: Workload, seed: int, trace: int, out: Optional[Path],
          untraced_run_s: Optional[float] = None) -> Dict[str, object]:
    """One run in a fresh process; returns its result with the detail folded in.
    A run that raises, hangs or prints no result fails all its operations."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
        "--seed", str(seed), "--trace", str(trace),
    ]
    if out is not None:
        command += ["--out", str(out)]
    if untraced_run_s is not None:
        command += ["--untraced-run-s", repr(untraced_run_s)]
    started = time.perf_counter()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        stdout, ending = done.stdout, f"exited {done.returncode}"
        sys.stderr.write(done.stderr)
    except subprocess.TimeoutExpired:
        stdout, ending = "", f"was killed after {CHILD_TIMEOUT_S} s"
    print(f"[run] {workload.name} trace={trace}: "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    lines = stdout.strip().splitlines()
    if len(lines) >= 2 and lines[-2].startswith("# detail "):
        result = json.loads(lines[-1])
        result["detail"] = json.loads(lines[-2][len("# detail "):])
        return result
    problem = f"the run {ending} without a result"
    print(f"CHECK FAILED [{workload.name}]: {problem}", file=sys.stderr)
    return {
        "correct": False, "attempted": workload.operations,
        "failed": workload.operations, "metrics": None,
        "detail": {"sim_digest": None, "counts": None, "est_abs_err": None,
                   "run_s": 0.0, "problems": [problem]},
    }


def summarise(workload: Workload, runs: List[Dict], traced: Dict) -> Dict[str, object]:
    """Fold a workload's untraced runs and its traced pass into one report entry."""
    everything = runs + [traced]
    finished = [run["detail"] for run in everything if run["metrics"] is not None]
    digests = sorted({detail["sim_digest"] for detail in finished})
    counts = [detail["counts"] for detail in finished]
    attempted = sum(run["attempted"] for run in everything)
    failed = sum(run["failed"] for run in everything)
    problems = [p for run in everything for p in run["detail"]["problems"]]
    if len(digests) > 1 or any(c != counts[0] for c in counts):
        # Runs that disagree about the simulated bytes fail all their operations.
        problems.append("sim_digest or counts differ between runs of the workload")
        failed = attempted

    measured = [run for run in runs if run["metrics"] is not None]
    end_to_end = {}
    for metric in metrics.END_TO_END:
        if metric.name == "failed_frac":
            values = [failed / attempted]
        elif metric.name == "est_abs_err":
            values = [run["detail"]["est_abs_err"] for run in measured]
        else:
            values = [run["metrics"][metric.name]["value"] for run in measured]
        if not values or values[0] is None:
            continue  # no estimator on this workload, or no run finished
        q1, median, q3 = metrics.quartiles(values)
        end_to_end[metric.name] = {
            "unit": metric.unit, "better": metric.better, "median": median,
            "q1": q1, "q3": q3, "n": len(values), "values": values,
        }
    return {
        "why": workload.why,
        "sim_digest": digests[0] if len(digests) == 1 else digests,
        "counts": counts[0] if counts else None,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": traced["metrics"] or {},
    }


def print_report(report: Dict[str, object]) -> None:
    print(f"{'workload':<22}{'metric':<24}{'unit':<10}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>8}  n")
    for name, entry in report["workloads"].items():
        for metric, row in entry["end_to_end"].items():
            share = (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0
            print(
                f"{name:<22}{metric:<24}{row['unit']:<10}{row['median']:>14.6g}"
                f"{row['q1']:>14.6g}{row['q3']:>14.6g}{share:>8.1%}  {row['n']}"
            )
        print(f"{name:<22}{'sim_digest':<24}{entry['sim_digest']}")
    print()
    print(f"{'workload':<22}{'per-layer metric (traced pass)':<40}{'value':>14}  unit")
    for name, entry in report["workloads"].items():
        for metric, row in entry["per_layer"].items():
            print(f"{name:<22}{metric:<40}{row['value']:>14.6g}  {row['unit']}")


def run_suite(seed: int, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    report: Dict[str, object] = {"manifest": manifest(seed), "workloads": {}}
    runs: Dict[str, List[Dict]] = {w.name: [] for w in workloads.WORKLOADS}
    # Round-robin over workloads, so that a noisy minute is spread over all of them.
    for repeat in range(REPEATS):
        print(f"[suite] repeat {repeat + 1}/{REPEATS}", file=sys.stderr)
        for workload in workloads.WORKLOADS:
            runs[workload.name].append(child(workload, seed, 0, out))
    print("[suite] traced pass", file=sys.stderr)
    for workload in workloads.WORKLOADS:
        # The untraced pass the traced one is held against: the median timed
        # region of the runs above (none, if none of them finished).
        timed = [run["detail"]["run_s"] for run in runs[workload.name] if run["metrics"]]
        traced = child(workload, seed, 1, out, statistics.median(timed) if timed else None)
        report["workloads"][workload.name] = summarise(
            workload, runs[workload.name], traced
        )
    path = out / "bench_suite.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_report(report)
    print(f"\nwrote {path}")
    failures = [
        f"{name}: {problem}"
        for name, entry in report["workloads"].items()
        for problem in entry["problems"]
    ]
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def selftest() -> int:
    import test_suite_selftest

    tests = [
        getattr(test_suite_selftest, name)
        for name in sorted(vars(test_suite_selftest))
        if name.startswith("test_")
    ]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS_BY_NAME),
                        help="run this one workload in this process (driver form); "
                        "without it the whole suite runs")
    parser.add_argument("--seed", type=int, default=3,
                        help="seed of the workload generators (default 3)")
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                        help="accepted for the driver and ignored: a run is one "
                        "unit of its workload, whose size fixes the run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced unit")
    parser.add_argument("--untraced-run-s", type=float, default=None,
                        help=argparse.SUPPRESS)  # the suite's traced pass, see child()
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for bench_suite.json and trace_*.jsonl "
                        "(suite default: benchmarks/suite/out)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the harness's self-test and exit")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload:
        return run_one(args)
    return run_suite(args.seed, args.out or SUITE_DIR / "out")


if __name__ == "__main__":
    raise SystemExit(main())
