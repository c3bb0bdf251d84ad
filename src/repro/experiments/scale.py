"""Horizon-scale experiments: the paper's figures at 10⁵–10⁶ nodes.

The estimation scenario kinds run every probe, and ``GraphProbe`` builds the whole
overlay graph and walks it for path length and clustering: O(N) Python-object work
per sample that dominates wall-clock long before the protocol itself does. The
``scale`` kind registered here runs the same workloads (instant population,
optional Figure 5 churn) but measures only what stays cheap at that size:

* the error series from ``scenario.ratio_estimates()``, which the columnar engine
  reads off its columns in one vectorised pass;
* the in-degree distribution from ``scenario.in_degree_histogram()`` (streamed off
  the view columns on the columnar engine, never a per-node list) instead of the
  ``GraphProbe`` — path length and clustering walks are deliberately skipped;
* sampling cadence is a cell param (``measure_every``) so a 10⁵-node cell is not
  forced to pay a measurement sweep every round.

Cells of this kind run on either engine through the scenario contract (the CI
equivalence smoke compares both at small N).

The module also hosts :func:`run_scale_experiment` — the ``repro run scale``
harness: the paper's static-ratio and churn figures at a given system size on
the columnar engine, reporting throughput (node·rounds/s) and peak RSS
alongside the estimation errors.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ExperimentError
from repro.experiments.base import cell_timeline, estimation_timeline
from repro.experiments.matrix import CellContext, measure_cell, register_scenario
from repro.metrics.estimation import EstimationErrorSeries
from repro.metrics.payload import MetricPayload, histogram_statistics
from repro.metrics.probes import CoreProbe, EstimationProbe, OverheadProbe
from repro.workload.scenario import ScenarioConfig, create_scenario


def measure_in_degree(scenario, payload: MetricPayload) -> None:
    """The ``in_degree`` histogram plus summary scalars, without graph walks."""
    histogram = scenario.in_degree_histogram()
    if not histogram:
        return
    stats = histogram_statistics(histogram)
    payload.set_histogram("in_degree", histogram)
    payload.set_scalar("indeg_mean", stats["mean"])
    payload.set_scalar("indeg_stddev", stats["stddev"])
    payload.set_scalar("indeg_max", stats["max"])


#: Reservoir capacity for the estimate-scatter figure: enough for stable
#: percentile read-outs, bounded regardless of N.
SCATTER_CAPACITY = 512


def sample_estimate_scatter(scenario) -> List[float]:
    """A uniform reservoir sample of per-node estimates (the scatter figure).

    The paper's per-node estimate scatter needs representative *raw* values,
    not just the mean/error aggregates — but archiving 10⁶ floats (or sorting
    them) defeats the streamed-metrics design. A fixed-capacity reservoir
    (:class:`~repro.columnar.streaming.ReservoirSample`) bounds that at
    :data:`SCATTER_CAPACITY` values regardless of N. Deterministic: the
    reservoir rng derives from the scenario's simulator seed. Returns ``[]``
    when the protocol estimates no ratio.
    """
    from repro.columnar.streaming import ReservoirSample

    reservoir = ReservoirSample(
        SCATTER_CAPACITY, rng=scenario.sim.derive_rng("estimate-scatter")
    )
    reservoir.extend(scenario.ratio_estimates())
    return reservoir.values


def run_scale_cell(ctx: CellContext) -> MetricPayload:
    """Execute one horizon-scale matrix cell.

    Cell params understood (all optional): ``churn_fraction`` /
    ``churn_start_round`` (the Figure 5 workload), ``join_window_ms`` (Poisson
    join transient) and ``measure_every`` — the error-series sampling cadence in
    rounds (the last round is always sampled so the convergence tail exists).
    """
    cell = ctx.cell
    measure_every = max(1, int(cell.param("measure_every", 1)))
    timeline = cell_timeline(ctx)
    if cell.param("join_window_ms"):
        scenario = create_scenario(ctx.scenario_config())
    else:
        scenario = ctx.populated_scenario(ctx.n_public, ctx.n_private)
    installed = ctx.install_timeline(scenario, base=timeline)

    series = EstimationErrorSeries(name=cell.key)
    overhead_window = None
    half = max(1, cell.rounds // 2)
    for round_index in range(1, cell.rounds + 1):
        installed.advance_rounds(1)
        if round_index % measure_every == 0 or round_index == cell.rounds:
            series.record(scenario.now, scenario.true_ratio(), scenario.ratio_estimates())
        if round_index == half:
            overhead_window = scenario.traffic_snapshot()

    payload = measure_cell(
        scenario,
        series,
        overhead_window=overhead_window,
        probes=(CoreProbe(), EstimationProbe(), OverheadProbe()),
    )
    measure_in_degree(scenario, payload)
    if series.samples:
        payload.set_scalar(
            "est_nodes_measured", float(series.samples[-1].nodes_measured)
        )
    scatter = sample_estimate_scatter(scenario)
    if scatter:
        payload.set_series(
            "est_scatter", [(float(index), value) for index, value in enumerate(scatter)]
        )
    return payload


register_scenario(
    "scale",
    run_scale_cell,
    description=(
        "horizon-scale estimation cells (10⁵+ nodes): engine-native streamed "
        "metrics, no per-node object scans or graph walks"
    ),
    default_params={"measure_every": 5.0},
    paper_variants=(
        {"measure_every": 5.0},
        {"measure_every": 5.0, "churn_fraction": 0.01, "churn_start_round": 61.0},
    ),
    timeout_s=1800.0,
)


# ------------------------------------------------------------------ repro run scale


@dataclass
class ScaleVariantResult:
    """One harness variant (static or churn) at one system size."""

    label: str
    nodes: int
    rounds: int
    engine: str
    true_ratio: float
    est_mean: Optional[float]
    final_avg_error: Optional[float]
    final_max_error: Optional[float]
    nodes_measured: int
    packets_sent: int
    wall_seconds: float
    node_rounds_per_sec: float
    peak_rss_mb: float
    #: Reservoir-sampled per-node estimates (the scatter figure).
    est_scatter: List[float] = field(default_factory=list)


@dataclass
class ScaleRunResult:
    """`repro run scale`: the paper's static and churn figures at horizon scale."""

    nodes: int
    rounds: int
    engine: str
    seed: int
    variants: List[ScaleVariantResult] = field(default_factory=list)

    def to_text(self) -> str:
        from repro.experiments.report import format_table

        def _fmt(value: Optional[float], spec: str = ".4f") -> str:
            return "-" if value is None else format(value, spec)

        rows = [
            [
                v.label,
                v.nodes,
                v.rounds,
                f"{v.true_ratio:.3f}",
                _fmt(v.est_mean),
                _fmt(v.final_avg_error),
                _fmt(v.final_max_error),
                v.nodes_measured,
                v.packets_sent,
                f"{v.wall_seconds:.1f}",
                f"{v.node_rounds_per_sec:,.0f}",
                f"{v.peak_rss_mb:.0f}",
            ]
            for v in self.variants
        ]
        table = format_table(
            [
                "variant",
                "N",
                "rounds",
                "ω",
                "ω̂ mean",
                "err avg",
                "err max",
                "measured",
                "packets",
                "wall s",
                "node·rounds/s",
                "RSS MB",
            ],
            rows,
            title=(
                f"Horizon scale (engine={self.engine}, N={self.nodes:,}, "
                f"rounds={self.rounds}, seed={self.seed})"
            ),
        )
        scatter_lines = []
        for v in self.variants:
            if not v.est_scatter:
                continue
            from repro.metrics.collector import percentile

            quantiles = "  ".join(
                f"p{q}={percentile(v.est_scatter, q):.4f}"
                for q in (5, 25, 50, 75, 95)
            )
            scatter_lines.append(
                f"{v.label} estimate scatter ({len(v.est_scatter)} sampled): {quantiles}"
            )
        return table + (
            "\nStatic ratio and Figure 5 churn at horizon scale; error metrics cover"
            "\nevery live node that holds an estimate after 2 rounds."
        ) + ("\n" + "\n".join(scatter_lines) if scatter_lines else "")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_scale_experiment(
    nodes: int = 100_000,
    public_ratio: float = 0.2,
    rounds: int = 70,
    seed: int = 42,
    engine: str = "columnar",
    churn_fraction: float = 0.01,
    churn_start_round: Optional[int] = None,
    measure_every: int = 5,
    latency: str = "king",
) -> ScaleRunResult:
    """Run the paper's static-ratio and churn workloads at ``nodes`` system size.

    Defaults to the columnar engine — the whole point is N where the object graph
    does not fit the round budget — but accepts ``engine="object"`` for small-N
    cross-checks. ``churn_start_round`` defaults to the paper's t=61 when the
    horizon allows, else to the midpoint of the run.
    """
    if nodes < 2:
        raise ExperimentError("scale experiment needs at least 2 nodes")
    if rounds <= 0:
        raise ExperimentError("rounds must be positive")
    if churn_start_round is None:
        churn_start_round = 61 if rounds > 61 else max(1, rounds // 2)
    if churn_fraction > 0.0 and churn_start_round >= rounds:
        raise ExperimentError(
            f"churn_start_round={churn_start_round} is beyond rounds={rounds}"
        )
    measure_every = max(1, int(measure_every))
    n_public = max(1, int(round(nodes * public_ratio)))
    n_private = nodes - n_public

    result = ScaleRunResult(nodes=nodes, rounds=rounds, engine=engine, seed=seed)
    for label, fraction in (("static", 0.0), ("churn", churn_fraction)):
        if label == "churn" and churn_fraction <= 0.0:
            continue
        scenario = create_scenario(
            ScenarioConfig(
                protocol="croupier", seed=seed, latency=latency, engine=engine
            )
        )
        scenario.populate(n_public, n_private)
        timeline = estimation_timeline(
            n_public=n_public,
            n_private=n_private,
            churn_fraction=fraction,
            churn_start_round=churn_start_round,
        )
        installed = timeline.install(scenario, horizon_rounds=rounds)

        series = EstimationErrorSeries(name=f"scale-{label}")
        started = time.perf_counter()
        for round_index in range(1, rounds + 1):
            installed.advance_rounds(1)
            if round_index % measure_every == 0 or round_index == rounds:
                series.record(scenario.now, scenario.true_ratio(), scenario.ratio_estimates())
        wall = time.perf_counter() - started

        estimates = scenario.ratio_estimates()
        measured = len(estimates)
        mean_estimate = sum(estimates) / measured if measured else None
        result.variants.append(
            ScaleVariantResult(
                label=label,
                nodes=scenario.live_count(),
                rounds=rounds,
                engine=engine,
                true_ratio=scenario.true_ratio(),
                est_mean=mean_estimate,
                final_avg_error=series.final_avg_error(),
                final_max_error=series.final_max_error(),
                nodes_measured=measured,
                packets_sent=int(scenario.network.packets_sent),
                wall_seconds=wall,
                node_rounds_per_sec=(nodes * rounds) / wall if wall > 0 else 0.0,
                peak_rss_mb=_peak_rss_mb(),
                est_scatter=sample_estimate_scatter(scenario),
            )
        )
    return result
