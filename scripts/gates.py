#!/usr/bin/env python3
"""Every CI gate of this repository, stated once, and the one runner for them.

    python3 scripts/gates.py               # every gate, in table order
    python3 scripts/gates.py NAME ...      # the named gates
    python3 scripts/gates.py --regen NAME  # rewrite NAME's golden from the runs it compares

A gate is a plain command or a ``repro matrix`` grid, run once per worker count
(with ``resume_cut``, later runs resume from the first run's journal cut after
that many lines and bytes). Its aggregates must be byte-identical to each other
and to its golden under ``artifacts/baseline/``; ``dry_runs`` compare ``--dry-run``
listings instead. ``seconds`` and ``megabytes`` bound each command's wall clock (it
is killed at the limit) and the peak RSS of its largest process. Outputs go to
``artifacts/ci/``, every gate runs on its own, and a run ends with each gate's
wall time. ``ci.sh``, ``ci.yml`` and ``check_docs.py`` read this table.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shlex
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "artifacts" / "baseline"
OUT = REPO / "artifacts" / "ci"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
REPRO = (sys.executable, "-m", "repro")

#: Columnar-vs-object estimator equivalence: the engines are statistically, not
#: bitwise, equivalent (the columnar model is round-synchronous), so each
#: columnar group's mean estimate must sit within TOLERANCE of its object twin's,
#: and both engines' converged average error below MAX_ERROR.
ENGINE_PART = "engine=columnar"
TOLERANCE = 0.05
MAX_ERROR = 0.15


class GateFailed(Exception):
    """A gate's command failed, a budget ran out, or bytes differ."""


#: What ``report_diff`` worsens in a copy of the golden: a lower-is-better mean
#: (doubled, plus one) and a histogram (every bin moved past the old maximum).
WORSENED_METRIC = "est_err_avg_final"
SHIFTED_HISTOGRAM = "in_degree"


def report_diff(gate: "Gate", aggregate: Path) -> None:
    """The semantic view of the golden comparison: group means within 5 %,
    histogram shapes within KS distance 0.1. A copy of the golden worsened past
    both tolerances must then exit 1 and name the metric and the histogram."""
    golden = BASELINE / gate.golden
    run([*REPRO, "report", "--diff", golden.relative_to(REPO),
         aggregate.relative_to(REPO)], gate)
    worse = json.loads(golden.read_text(encoding="utf-8"))
    group = min(name for name, metrics in worse["groups"].items()
                if WORSENED_METRIC in metrics)
    summary = worse["groups"][group][WORSENED_METRIC]
    summary["mean"] = summary["mean"] * 2 + 1
    histogram = worse["group_histograms"][group][SHIFTED_HISTOGRAM]
    top = max(int(value) for value in histogram) + 1
    worse["group_histograms"][group][SHIFTED_HISTOGRAM] = {
        str(int(value) + top): count for value, count in histogram.items()}
    worse_path = OUT / f"{gate.name}-worsened.json"
    worse_path.write_text(json.dumps(worse, indent=2, sort_keys=True), encoding="utf-8")
    argv = [*REPRO, "report", "--diff", golden.relative_to(REPO), worse_path.relative_to(REPO)]
    print("+ " + shlex.join(str(arg) for arg in argv), flush=True)
    result = subprocess.run(argv, cwd=REPO, env=ENV, capture_output=True, text=True)
    unnamed = [name for name in (WORSENED_METRIC, SHIFTED_HISTOGRAM) if name not in result.stdout]
    if result.returncode != 1 or unnamed:
        raise GateFailed(f"`repro report --diff` on a worsened golden exited "
                         f"{result.returncode} (want 1); names missing from its output: "
                         f"{unnamed}\n{result.stdout}{result.stderr}")
    print(f"worsened golden: exit 1, names {WORSENED_METRIC} and {SHIFTED_HISTOGRAM}")


def equivalence_problems(aggregate: dict) -> List[str]:
    """Pair every ``engine=columnar`` group with its object twin (the same group key
    without that part) and list every violation of TOLERANCE and MAX_ERROR."""
    problems = [f"failed cell {key}" for key in aggregate.get("failed", [])]
    groups = aggregate.get("groups", {})
    columnar = {
        ";".join(part for part in name.split(";") if part != ENGINE_PART): metrics
        for name, metrics in groups.items() if ENGINE_PART in name.split(";")
    }
    if not columnar:
        problems.append(f"no {ENGINE_PART} groups in the aggregate")
    for stem, col in sorted(columnar.items()):
        obj = groups.get(stem)
        if obj is None:
            problems.append(f"{stem}: no object-engine twin group")
            continue
        col_mean = col.get("est_mean", {}).get("mean")
        obj_mean = obj.get("est_mean", {}).get("mean")
        if col_mean is None or obj_mean is None:
            problems.append(f"{stem}: est_mean missing (columnar={col_mean}, object={obj_mean})")
            continue
        delta = abs(col_mean - obj_mean)
        print(f"{stem}: est_mean columnar={col_mean:.4f} object={obj_mean:.4f} delta={delta:.4f}")
        if delta > TOLERANCE:
            problems.append(f"{stem}: est_mean delta {delta:.4f} > {TOLERANCE}")
        for label, metrics in (("columnar", col), ("object", obj)):
            err = metrics.get("est_err_avg_final", {}).get("mean")
            if err is None or err > MAX_ERROR:
                problems.append(f"{stem}: {label} est_err_avg_final {err} over {MAX_ERROR}")
    return problems


def columnar_equivalence(gate: "Gate", aggregate: Path) -> None:
    problems = equivalence_problems(json.loads(aggregate.read_text(encoding="utf-8")))
    if problems:
        raise GateFailed("columnar-vs-object equivalence: " + "; ".join(problems))


def scale_estimate(gate: "Gate", aggregate: Path) -> None:
    """Every node of the one scale cell measured an estimate, and their mean is ≈ ω = 0.2."""
    [(name, metrics)] = json.loads(aggregate.read_text(encoding="utf-8"))["groups"].items()
    size = float(gate.grid[gate.grid.index("--sizes") + 1])
    mean = metrics["est_mean"]["mean"]
    measured = metrics["est_nodes_measured"]["mean"]
    if measured != size:
        raise GateFailed(f"expected {size:.0f} measured nodes, got {measured}")
    if abs(mean - 0.2) >= 0.05:
        raise GateFailed(f"estimate off at scale: {mean}")
    print(f"scale OK: {name}: est_mean={mean:.4f} over {measured:.0f} nodes")


@dataclass(frozen=True)
class Gate:
    name: str
    guarantee: str
    command: Tuple[str, ...] = ()  # interpreter arguments of a plain-command gate
    grid: Tuple[str, ...] = ()  # `repro matrix` arguments of a grid gate
    workers: Tuple[int, ...] = (1,)
    extra: Tuple[str, ...] = ()  # run-only `repro matrix` flags: no effect on the bytes
    resume_cut: Optional[Tuple[int, int]] = None  # (whole lines, bytes of the next line)
    dry_runs: Tuple[Tuple[str, ...], ...] = ()
    golden: str = ""
    seconds: Optional[float] = None
    megabytes: Optional[float] = None
    check: Optional[Callable[["Gate", Path], None]] = None


MATRIX = ("--scenarios", "static", "--protocols", "croupier,cyclon", "--sizes", "60",
          "--seeds", "2", "--rounds", "10", "--latency", "constant",
          "--nat-mixtures", "none,paper", "--upnp-fractions", "0,0.2")
TIMELINE = ("--scenarios", "static", "--protocols", "croupier", "--sizes", "40",
            "--seeds", "2", "--rounds", "70", "--latency", "constant",
            "--timelines", "paper-churn")
#: Every figure's cells at the matrix defaults. ``quick``'s one cell is
#: ``ablation-views``' Croupier cell, so naming both would be a duplicate key.
FIGURES = ("--figures", "history-static,history-dynamic,system-size,ratio-sweep,churn,"
           "scale,randomness,overhead,failure,nat-indegree,ablation-views,"
           "ablation-piggyback,ablation-selection")
QUIET = ("--heartbeat", "0")

GATES = (
    Gate("compileall", "every module under `src/` byte-compiles",
         command=("-m", "compileall", "-q", "src")),
    Gate("lint", "`repro lint src --strict` finds nothing (seed custody, canonical ordering, "
         "wall-clock containment) and matches every allowlist entry, within 30 s",
         command=("-m", "repro", "lint", "src", "--strict"), seconds=30),
    Gate("tier1", "the unit and integration suite passes (`pytest -x -q`)",
         command=("-m", "pytest", "-x", "-q", "--ff")),
    Gate("docs", "`scripts/check_docs.py`: README and docs links and anchors resolve, documented "
         "`repro` flags and run names exist, and the figure, lint-rule, strategy and gate tables "
         "match the code",
         command=("scripts/check_docs.py",)),
    Gate("selftest", "the benchmark harness runs and every name its traced pass patches in "
         "`src/` resolves", command=("benchmarks/suite/run.py", "--selftest")),
    Gate("matrix", "the 16-cell mini-matrix (croupier + cyclon, NAT mixtures, UPnP) is "
         "byte-identical at 4 and 1 workers and to its golden; `repro report --diff` "
         "shows no regression, and flags a copy of the golden worsened past both tolerances",
         grid=MATRIX, workers=(4, 1), golden="matrix_aggregate.json", check=report_diff),
    Gate("timeline", "the `paper-churn` timeline cells (40 nodes × 70 rounds × 2 seeds) are "
         "byte-identical at 4 and 1 workers and to their golden",
         grid=TIMELINE, workers=(4, 1), golden="timeline_aggregate.json"),
    Gate("columnar", "croupier on both engines: columnar bytes identical at 4 and 1 workers and "
         "to the golden; each columnar group's mean estimate within 0.05 of its object twin",
         grid=("--scenarios", "static", "--protocols", "croupier", "--sizes", "60",
               "--seeds", "2", "--rounds", "40", "--latency", "constant",
               "--engines", "object,columnar"),
         workers=(4, 1), golden="columnar_aggregate.json", check=columnar_equivalence),
    Gate("natrelay", "gozar + nylon columnar cells (static and churn) are byte-identical at 4 "
         "and 1 workers and to their golden",
         grid=("--scenarios", "static,churn", "--protocols", "gozar,nylon", "--sizes", "60",
               "--seeds", "2", "--rounds", "40", "--latency", "constant",
               "--engines", "columnar"),
         workers=(4, 1), golden="columnar_natrelay_aggregate.json"),
    Gate("objnat", "gozar + nylon object cells under the paper NAT mixture (90 rounds, so NAT "
         "bindings expire) are byte-identical at 2 and 1 workers and to their golden",
         grid=("--scenarios", "static,churn", "--protocols", "gozar,nylon", "--sizes", "40",
               "--seeds", "2", "--rounds", "90", "--latency", "constant",
               "--nat-mixtures", "paper"),
         workers=(2, 1), golden="object_natrelay_aggregate.json"),
    Gate("king", "croupier + nylon object cells over the paper's King latency model (60 nodes "
         "× 40 rounds × 2 seeds) are byte-identical at 2 and 1 workers and to their golden",
         grid=("--scenarios", "static", "--protocols", "croupier,nylon", "--sizes", "60",
               "--seeds", "2", "--rounds", "40", "--latency", "king"),
         workers=(2, 1), golden="king_aggregate.json"),
    Gate("scale", "one 10⁵-node columnar cell finishes within 300 s and 231 MB peak RSS, "
         "every node measured, mean ω̂ ≈ ω",
         grid=("--scenarios", "scale", "--protocols", "croupier", "--engines", "columnar",
               "--sizes", "100000", "--seeds", "1", "--rounds", "5", "--latency", "constant"),
         extra=QUIET, seconds=300, megabytes=231, check=scale_estimate),
    Gate("cellkeys", "the `--dry-run` cell keys, seeds and timeline digests of the matrix and "
         "timeline grids and of every figure's cells equal the committed list",
         dry_runs=(MATRIX, TIMELINE, FIGURES), golden="matrix_cells.txt"),
    Gate("chaos", "the mini-matrix under injected crashes, hangs and corruption recovers "
         "byte-identical to its golden",
         grid=MATRIX, workers=(2,), golden="matrix_aggregate.json",
         extra=("--chaos", "seed=7,crash=0.3,hang=0.1,corrupt=0.3", "--cell-timeout", "5",
                *QUIET)),
    Gate("resume", "a sequential mini-matrix journal cut inside its sixth cell and resumed at "
         "2 workers rebuilds an aggregate byte-identical to the golden",
         grid=MATRIX, workers=(1, 2), resume_cut=(6, 25), golden="matrix_aggregate.json",
         extra=QUIET),
)
BY_NAME = {gate.name: gate for gate in GATES}


def run(argv, gate: Gate) -> None:
    """Run one command inside the gate's budgets."""
    print("+ " + shlex.join(str(arg) for arg in argv), flush=True)
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=REPO, env=ENV)
    timer = threading.Timer(gate.seconds, proc.kill) if gate.seconds else None
    if timer:
        timer.start()
    # wait4, not wait: its rusage covers this command and its descendants alone.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timer:
        timer.cancel()
    wall, peak_mb = time.monotonic() - start, usage.ru_maxrss / 1024
    if gate.seconds or gate.megabytes:
        print(f"  wall {wall:.1f} s, peak RSS {peak_mb:.0f} MB")
    if gate.seconds and wall > gate.seconds:
        raise GateFailed(f"over the {gate.seconds:g} s budget")
    if proc.returncode:
        raise GateFailed(f"exit status {proc.returncode}")
    if gate.megabytes and peak_mb > gate.megabytes:
        raise GateFailed(f"peak RSS {peak_mb:.0f} MB over the {gate.megabytes:g} MB budget")


def same_bytes(expected: Path, actual: Path) -> None:
    if not filecmp.cmp(expected, actual, shallow=False):
        raise GateFailed(f"{actual.relative_to(REPO)} differs from {expected.relative_to(REPO)}")


def cut_journal(journal: Path, cut: Path, lines: int, extra_bytes: int) -> None:
    """A killed run's journal: ``lines`` whole lines, then ``extra_bytes`` of the next."""
    data = journal.read_bytes()
    head = b"".join(line + b"\n" for line in data.split(b"\n")[:lines])
    cut.write_bytes(head + data[len(head):len(head) + extra_bytes])


def produce(gate: Gate) -> Path:
    """Run a grid gate's runs (or dry runs); -> the file its golden must equal."""
    OUT.mkdir(parents=True, exist_ok=True)
    if gate.dry_runs:
        listing = OUT / f"{gate.name}.txt"
        with open(listing, "wb") as handle:
            for grid in gate.dry_runs:
                argv = [*REPRO, "matrix", *grid, "--dry-run"]
                print("+ " + shlex.join(argv) + " 2>/dev/null", flush=True)
                subprocess.run(argv, cwd=REPO, env=ENV, stdout=handle,
                               stderr=subprocess.DEVNULL, check=True)
        return listing
    aggregates: List[Path] = []
    for workers in gate.workers:
        out = OUT / f"{gate.name}-w{workers}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [*REPRO, "matrix", *gate.grid, *gate.extra, "--workers", str(workers),
                "--out", out.relative_to(REPO)]
        if gate.resume_cut and aggregates:
            journal = OUT / f"{gate.name}.jsonl"
            cut_journal(aggregates[0].with_name("matrix_journal.jsonl"), journal,
                        *gate.resume_cut)
            argv += ["--resume", journal.relative_to(REPO)]
        run(argv, gate)
        aggregates.append(out / "matrix_aggregate.json")
        same_bytes(aggregates[0], aggregates[-1])
    return aggregates[-1]


def run_gate(gate: Gate, regen: bool = False) -> None:
    if gate.command:
        run([sys.executable, *gate.command], gate)
        return
    produced = produce(gate)
    if regen:
        shutil.copyfile(produced, BASELINE / gate.golden)
        print(f"wrote {(BASELINE / gate.golden).relative_to(REPO)}")
    if gate.check:  # before the byte compare, so a failing golden still gets its report
        gate.check(gate, produced)
    if gate.golden and not regen:
        same_bytes(BASELINE / gate.golden, produced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"gates to run (default: all): {', '.join(BY_NAME)}")
    parser.add_argument("--regen", metavar="NAME", help="rewrite this gate's golden")
    args = parser.parse_args(argv)
    unknown = [name for name in [*args.names, args.regen] if name and name not in BY_NAME]
    if unknown or (args.regen and args.names):
        parser.error(f"unknown gate(s) {unknown}" if unknown else "--regen takes one gate")
    if args.regen and not BY_NAME[args.regen].golden:
        parser.error(f"gate {args.regen!r} has no golden")
    results = []
    for gate in [BY_NAME[name] for name in [*args.names, args.regen] if name] or GATES:
        print(f"\n== {gate.name}: {gate.guarantee} ==", flush=True)
        start = time.monotonic()
        try:
            run_gate(gate, regen=bool(args.regen))
            outcome = "ok"
        except (GateFailed, subprocess.CalledProcessError, OSError, ValueError, KeyError) as exc:
            outcome = f"FAIL: {exc}"
            print(outcome, flush=True)
        results.append((gate.name, time.monotonic() - start, outcome))
    print(f"\n{'gate':<11} {'wall s':>7}  result")
    for name, wall, outcome in results:
        print(f"{name:<11} {wall:7.1f}  {outcome}")
    print(f"{'total':<11} {sum(wall for _, wall, _ in results):7.1f}")
    return 1 if any(outcome != "ok" for _, _, outcome in results) else 0


if __name__ == "__main__":
    sys.exit(main())
