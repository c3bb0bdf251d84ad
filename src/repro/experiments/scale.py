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
equivalence smoke compares both at small N). ``repro run scale`` is the figure of
two such cells on the columnar engine (:mod:`~repro.experiments.figures`); what a
cell costs in wall clock and memory is the matrix runner's to report, not the
kind's.
"""

from __future__ import annotations

from typing import List

from repro.experiments.base import cell_timeline
from repro.experiments.matrix import CellContext, measure_cell, register_scenario
from repro.metrics.estimation import EstimationErrorSeries
from repro.metrics.payload import MetricPayload, histogram_statistics
from repro.metrics.probes import CoreProbe, EstimationProbe, OverheadProbe
from repro.workload.scenario import create_scenario


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

#: The kind's ``measure_every``: its default param and the runner's fallback.
MEASURE_EVERY = 5.0


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
    measure_every = max(1, int(cell.param("measure_every", MEASURE_EVERY)))
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
    default_params={"measure_every": MEASURE_EVERY},
    timeout_s=1800.0,
)

