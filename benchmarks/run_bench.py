#!/usr/bin/env python
"""Standalone hot-path benchmark runner: emits the perf-trajectory point.

Writes ``BENCH_hotpaths.json`` (at the repository root by default) with wall-clock
measurements of the simulation hot paths plus the PR-1 acceptance scenario (1000
Croupier nodes × 100 gossip rounds), compared against the seed-implementation baseline
measured on this container. Every future perf PR re-runs this script and appends its
numbers to the trajectory, so regressions are visible across PRs.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full run (~1 min)
    PYTHONPATH=src python benchmarks/run_bench.py --quick    # <= 60 s smoke subset
    PYTHONPATH=src python benchmarks/run_bench.py --output /tmp/bench.json

The scenario measurements assert output fidelity (event counts and the mean ratio
estimate must match the seed implementation bit for bit) before timings are recorded —
a fast-but-wrong run never produces a trajectory point.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.estimator import RatioEstimate, RatioEstimator  # noqa: E402
from repro.membership.descriptor import NodeDescriptor  # noqa: E402
from repro.membership.view import PartialView  # noqa: E402
from repro.metrics.probes import collect_ratio_estimates  # noqa: E402
from repro.net.address import Endpoint, NatType, NodeAddress  # noqa: E402
from repro.simulator.core import Simulator  # noqa: E402
from repro.workload.scenario import Scenario, ScenarioConfig  # noqa: E402

#: Seed-implementation (commit 8b078d8) wall-clock baselines measured on this container.
SEED_BASELINES = {
    "croupier_1000x100": {
        "seconds": 83.48,
        "events_executed": 292357,
        "mean_estimate": 0.20146065899706894,
    },
}


def _timeit(func, repeats: int = 3) -> float:
    """Best-of-N wall-clock seconds for one call of ``func``."""
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _make_descriptor(node_id: int, age: int = 0) -> NodeDescriptor:
    address = NodeAddress(
        node_id=node_id,
        endpoint=Endpoint(f"1.0.{node_id // 250}.{node_id % 250 + 1}", 7000),
        nat_type=NatType.PUBLIC,
    )
    return NodeDescriptor(address=address, age=age)


def bench_micro() -> dict:
    """Per-primitive timings (seconds) for the optimised hot paths."""
    results = {}

    view = PartialView(1000)
    for node_id in range(1, 1001):
        view.add(_make_descriptor(node_id, age=node_id % 7))

    def ages():
        for _ in range(100_000):
            view.increase_ages()

    results["increase_ages_100k_on_1000_entries"] = _timeit(ages)

    rng = random.Random(3)
    small_view = PartialView(10)
    for node_id in range(1, 11):
        small_view.add(_make_descriptor(node_id, age=node_id))

    def subsets():
        for _ in range(10_000):
            small_view.random_subset(rng, 5, exclude_ids=(1,))

    results["random_subset_10k"] = _timeit(subsets)

    received = [_make_descriptor(100 + i) for i in range(5)]

    def merges():
        for _ in range(10_000):
            sent = small_view.random_subset(rng, 5)
            small_view.update_view(sent=sent, received=received, self_id=999)

    results["update_view_10k"] = _timeit(merges)

    def events():
        sim = Simulator(seed=1)
        sink = []
        for index in range(50_000):
            handle = sim.schedule(float(index % 100), sink.append, index)
            if index % 3 == 0:
                handle.cancel()
        sim.run()
        assert sim.pending_events == 0

    results["event_loop_50k_with_cancels"] = _timeit(events)

    estimator = RatioEstimator(alpha=25, gamma=50, is_public=True)
    estimator.merge_estimates([RatioEstimate(i, 0.2, age=i % 5) for i in range(200)])
    est_rng = random.Random(1)

    def estimator_rounds():
        for _ in range(10_000):
            estimator.record_shuffle_request(True)
            estimator.estimates_subset(est_rng, 10)
            estimator.advance_round()

    results["estimator_10k_rounds_warm_cache"] = _timeit(estimator_rounds)
    return results


def bench_matrix_throughput(workers_list=(1, 2, 4), cells: int = 8) -> dict:
    """Matrix-runner throughput (cells/minute) at several worker counts.

    Runs the same fixed-seed grid at each worker count and asserts the aggregates stay
    byte-identical before recording any timing — parallel scaling must never change
    results. On single-core containers the scaling is flat; the trajectory records
    that honestly.
    """
    from repro.experiments.matrix import MatrixSpec
    from repro.experiments.runner import aggregate_json_bytes, run_matrix

    spec = MatrixSpec(
        scenarios=("static",),
        protocols=("croupier",),
        sizes=(100,),
        seeds=cells,
        rounds=10,
        latency="constant",
        root_seed=5,
    )
    results = {}
    reference = None
    for workers in workers_list:
        run = run_matrix(spec, workers=workers)
        if run.failed:
            raise SystemExit(f"matrix bench cell failed: {run.failed[0].error}")
        blob = aggregate_json_bytes(run)
        if reference is None:
            reference = blob
        elif blob != reference:
            raise SystemExit(
                f"FIDELITY FAILURE: matrix aggregate differs at workers={workers}"
            )
        results[f"workers_{workers}"] = {
            "cells": len(run.results),
            "seconds": round(run.wall_seconds, 3),
            "cells_per_minute": round(60.0 * len(run.results) / run.wall_seconds, 1),
        }
    return results


def bench_scenario_reuse(n_public: int = 40, n_private: int = 160,
                         warmup_rounds: int = 20, seed: int = 3) -> dict:
    """Cost of branching off a warmed scenario via clone() vs rebuilding it.

    This is the amortisation the failure harness and the matrix reuse cache lean
    on: one build-and-warm-up, then one clone per destructive treatment. The two
    paths are asserted to land in identical states before timings are recorded.
    """
    started = time.perf_counter()
    warmed = Scenario(ScenarioConfig(protocol="croupier", seed=seed, latency="constant"))
    warmed.populate(n_public=n_public, n_private=n_private)
    warmed.run_rounds(warmup_rounds)
    build_seconds = time.perf_counter() - started

    clone_seconds = _timeit(warmed.clone)
    # Fidelity: a clone run forward must land exactly where a fresh same-seed
    # scenario run for the same total rounds lands.
    branched = warmed.clone()
    branched.run_rounds(5)
    rebuilt = Scenario(ScenarioConfig(protocol="croupier", seed=seed, latency="constant"))
    rebuilt.populate(n_public=n_public, n_private=n_private)
    rebuilt.run_rounds(warmup_rounds + 5)
    if (
        branched.sim.events_executed != rebuilt.sim.events_executed
        or branched.network.packets_sent != rebuilt.network.packets_sent
    ):
        raise SystemExit("FIDELITY FAILURE: clone continuation diverged from rebuild")
    return {
        "n_nodes": n_public + n_private,
        "warmup_rounds": warmup_rounds,
        "build_and_warm_seconds": round(build_seconds, 4),
        "clone_seconds": round(clone_seconds, 4),
        "clone_speedup": round(build_seconds / clone_seconds, 1),
    }


def bench_columnar_scale(nodes: int, rounds: int, seed: int = 3) -> dict:
    """Columnar-engine throughput at horizon scale: node·rounds/second + peak RSS.

    Populate and round phases are timed separately — the gossip throughput number
    (``node_rounds_per_sec``) covers only the round loop. A sanity assertion keeps
    the trajectory honest: the converged mean estimate must sit near ω.
    """
    import resource

    from repro.workload.scenario import create_scenario

    started = time.perf_counter()
    scenario = create_scenario(
        ScenarioConfig(
            protocol="croupier", seed=seed, latency="constant", engine="columnar"
        )
    )
    n_public = max(1, nodes // 5)
    scenario.populate(n_public=n_public, n_private=nodes - n_public)
    populate_seconds = time.perf_counter() - started

    round_started = time.perf_counter()
    scenario.run_rounds(rounds)
    round_seconds = time.perf_counter() - round_started

    true_ratio = scenario.true_ratio()
    measured, mean_estimate, avg_error, _max = scenario.engine.estimate_stats(true_ratio)
    if measured < nodes * 0.9 or abs(mean_estimate - true_ratio) > 0.1:
        raise SystemExit(
            "FIDELITY FAILURE: columnar scale run did not converge "
            f"(measured={measured}, mean={mean_estimate}, true={true_ratio})"
        )
    return {
        "n_nodes": nodes,
        "rounds": rounds,
        "populate_seconds": round(populate_seconds, 3),
        "round_seconds": round(round_seconds, 3),
        "node_rounds_per_sec": round(nodes * rounds / round_seconds, 1),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
        "packets_sent": scenario.network.packets_sent,
        "mean_estimate": round(mean_estimate, 6),
        "avg_error": round(avg_error, 6),
        "true_ratio": true_ratio,
    }


def bench_scenario(n_public: int, n_private: int, rounds: int, seed: int = 3) -> dict:
    """Time one full Croupier scenario and capture its (deterministic) outputs."""
    started = time.perf_counter()
    scenario = Scenario(ScenarioConfig(protocol="croupier", seed=seed))
    scenario.populate(n_public=n_public, n_private=n_private)
    scenario.run_rounds(rounds)
    elapsed = time.perf_counter() - started
    estimates = [e for e in collect_ratio_estimates(scenario) if e is not None]
    return {
        "n_nodes": n_public + n_private,
        "rounds": rounds,
        "seconds": round(elapsed, 3),
        "events_executed": scenario.sim.events_executed,
        "packets_sent": scenario.network.packets_sent,
        "mean_estimate": sum(estimates) / len(estimates),
        "true_ratio": scenario.true_ratio(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run a <=60s subset (micro benches + a 300-node scenario)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_hotpaths.json",
        help="where to write the JSON trajectory point",
    )
    args = parser.parse_args()

    report = {
        "bench": "hotpaths",
        "mode": "quick" if args.quick else "full",
        "python": sys.version.split()[0],
        "micro_seconds": bench_micro(),
        "matrix_throughput": bench_matrix_throughput(),
        "scenario_reuse": bench_scenario_reuse(),
        "seed_baselines": SEED_BASELINES,
    }

    if args.quick:
        report["scenarios"] = {
            "croupier_300x30": bench_scenario(n_public=60, n_private=240, rounds=30)
        }
        report["columnar_scale"] = {
            "croupier_10000x20": bench_columnar_scale(nodes=10_000, rounds=20)
        }
    else:
        scenario = bench_scenario(n_public=200, n_private=800, rounds=100)
        baseline = SEED_BASELINES["croupier_1000x100"]
        if scenario["events_executed"] != baseline["events_executed"]:
            raise SystemExit(
                "FIDELITY FAILURE: event count "
                f"{scenario['events_executed']} != seed {baseline['events_executed']}"
            )
        if scenario["mean_estimate"] != baseline["mean_estimate"]:
            raise SystemExit(
                "FIDELITY FAILURE: mean estimate "
                f"{scenario['mean_estimate']!r} != seed {baseline['mean_estimate']!r}"
            )
        scenario["speedup_vs_seed"] = round(baseline["seconds"] / scenario["seconds"], 2)
        report["scenarios"] = {"croupier_1000x100": scenario}
        # The columnar acceptance points: 10^5- and 10^6-node Croupier
        # populations through the paper's 70 rounds, on the flat-array engine
        # (plus a 10^4 quick point for cheap cross-run comparison).
        report["columnar_scale"] = {
            "croupier_10000x20": bench_columnar_scale(nodes=10_000, rounds=20),
            "croupier_100000x70": bench_columnar_scale(nodes=100_000, rounds=70),
            "croupier_1000000x70": bench_columnar_scale(nodes=1_000_000, rounds=70),
        }

    args.output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, indent=1, sort_keys=True))
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
