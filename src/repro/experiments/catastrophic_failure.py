"""Figure 7(b): connectivity after catastrophic failure.

A large fraction of nodes (40–90 %) is killed at a single instant; the metric is the
size of the biggest connected cluster among the survivors (as a percentage of the
survivors). The paper runs this with 80 % private nodes and finds Croupier far more
resilient than Gozar and Nylon — e.g. at 90 % failures Croupier's biggest cluster still
covers more than 85 % of the surviving nodes versus roughly 55 % for the baselines.

The kind branches on ``failure_fraction``: cells that differ only in the fraction run
one seed and share one warmed prefix, which each cell clones before its failure, so a
protocol warms up once per worker however many fractions it is swept over.
``FIGURES["failure"]`` (:mod:`~repro.experiments.figures`) is the figure.
"""

from __future__ import annotations

from repro.experiments.matrix import CellContext, measure_cell, register_scenario
from repro.metrics.payload import MetricPayload
from repro.workload.events import FailureSpike

#: The kind's ``failure_fraction``: its default param and the runner's fallback.
FAILURE_FRACTION = 0.5


def run_failure_cell(ctx: CellContext) -> MetricPayload:
    """One Figure 7(b) cell: a clone of the warmed prefix (``rounds`` rounds under the
    cell's axis timeline), then one :class:`~repro.workload.FailureSpike` at that final
    round boundary. The surviving overlay is measured immediately after the failure,
    exactly as the paper does."""
    cell = ctx.cell
    fraction = float(cell.param("failure_fraction", FAILURE_FRACTION))
    scenario = ctx.populated_scenario(warm=True)
    outcome = FailureSpike(at_round=float(cell.rounds), fraction=fraction).apply(scenario)
    payload = measure_cell(scenario)
    payload.set_scalar("failure_fraction", fraction)
    payload.set_scalar("survivors", float(outcome.survivors))
    payload.set_scalar("biggest_cluster_fraction", outcome.biggest_cluster_fraction)
    return payload


register_scenario(
    "failure",
    run_failure_cell,
    description="catastrophic failure: kill a fraction of all nodes at one instant (Figure 7b)",
    default_params={"failure_fraction": FAILURE_FRACTION},
    branch_param="failure_fraction",
)
