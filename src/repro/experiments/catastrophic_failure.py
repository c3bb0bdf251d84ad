"""Figure 7(b): connectivity after catastrophic failure.

A large fraction of nodes (40–90 %) is killed at a single instant; the metric is the
size of the biggest connected cluster among the survivors (as a percentage of the
survivors). The paper runs this with 80 % private nodes and finds Croupier far more
resilient than Gozar and Nylon — e.g. at 90 % failures Croupier's biggest cluster still
covers more than 85 % of the surviving nodes versus roughly 55 % for the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.experiments.matrix import (
    CellContext,
    measure_cell,
    public_only_baseline,
    register_scenario,
)
from repro.experiments.report import format_table
from repro.workload.events import FailureSpike
from repro.workload.scenario import Scenario, ScenarioConfig
from repro.workload.timeline import Timeline

#: Failure percentages on the x-axis of Figure 7(b).
PAPER_FAILURE_FRACTIONS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: Protocols compared in Figure 7(b).
PAPER_PROTOCOLS = ("croupier", "gozar", "nylon", "cyclon")


def run_failure_cell(ctx: CellContext) -> Dict[str, float]:
    """One Figure 7(b) matrix cell: warm up, kill a fraction of all nodes, measure.

    The cell's ``rounds`` are the warm-up; its dynamics are a one-event timeline — a
    :class:`~repro.workload.FailureSpike` at the final round boundary — so the
    connectivity of the surviving overlay is measured immediately after the failure,
    exactly as the paper does (and exactly as the pre-timeline imperative cell did).
    """
    cell = ctx.cell
    fraction = float(cell.param("failure_fraction", 0.5))
    spike = FailureSpike(at_round=float(cell.rounds), fraction=fraction)
    scenario = ctx.populated_scenario()
    installed = ctx.install_timeline(scenario, base=Timeline((spike,)))
    installed.advance_rounds(cell.rounds)
    outcome = installed.outcome_of(spike)
    payload = measure_cell(scenario)
    payload.set_scalar("failure_fraction", fraction)
    payload.set_scalar("survivors", float(outcome.survivors))
    payload.set_scalar("biggest_cluster_fraction", outcome.biggest_cluster_fraction)
    return payload


register_scenario(
    "failure",
    run_failure_cell,
    description="catastrophic failure: kill a fraction of all nodes at one instant (Figure 7b)",
    default_params={"failure_fraction": 0.5},
    paper_variants=[{"failure_fraction": f} for f in PAPER_FAILURE_FRACTIONS],
)


@dataclass
class FailureExperimentResult:
    """Biggest-cluster fraction per protocol and failure level."""

    total_nodes: int
    private_ratio: float
    warmup_rounds: int
    #: protocol -> {failure_fraction -> biggest-cluster fraction of survivors}
    clusters: Dict[str, Dict[float, float]] = field(default_factory=dict)

    def cluster_at(self, protocol: str, failure_fraction: float) -> float:
        return self.clusters[protocol][failure_fraction]

    def to_text(self) -> str:
        fractions = sorted({f for per in self.clusters.values() for f in per})
        rows = []
        for protocol, per_fraction in self.clusters.items():
            rows.append(
                [protocol]
                + [round(100.0 * per_fraction.get(f, 0.0), 1) for f in fractions]
            )
        headers = ["protocol"] + [f"{int(f * 100)}% fail" for f in fractions]
        return format_table(
            headers, rows, title="Figure 7(b): biggest cluster size (% of survivors)"
        )


def run_failure_experiment(
    protocols: Sequence[str] = PAPER_PROTOCOLS,
    failure_fractions: Sequence[float] = PAPER_FAILURE_FRACTIONS,
    total_nodes: int = 1000,
    private_ratio: float = 0.8,
    warmup_rounds: int = 100,
    seed: int = 42,
    latency: str = "king",
) -> FailureExperimentResult:
    """Reproduce Figure 7(b).

    Failures are destructive, so fractions cannot share a *run* — but they share the
    entire build-and-warm-up prefix (same seed, same population): each protocol is
    populated and warmed exactly once, and every failure level is a one-event
    timeline suffix (:class:`~repro.workload.FailureSpike`) installed on a
    :meth:`~repro.workload.Scenario.clone` of that warmed system. The clone carries
    the full simulator state, so the outcome per fraction is bit-identical to the
    previous rebuild-per-fraction approach while paying the warm-up once instead of
    once per fraction. As in the paper, a NAT-oblivious protocol (Cyclon) runs over
    public nodes only.
    """
    result = FailureExperimentResult(
        total_nodes=total_nodes,
        private_ratio=private_ratio,
        warmup_rounds=warmup_rounds,
    )
    for protocol in protocols:
        if public_only_baseline(protocol):
            n_public, n_private = total_nodes, 0
        else:
            n_private = int(round(total_nodes * private_ratio))
            n_public = total_nodes - n_private
        warmed = Scenario(ScenarioConfig(protocol=protocol, seed=seed, latency=latency))
        warmed.populate(n_public=n_public, n_private=n_private)
        warmed.run_rounds(warmup_rounds)
        per_fraction: Dict[float, float] = {}
        for fraction in failure_fractions:
            scenario = warmed.clone()
            spike = FailureSpike(at_round=float(warmup_rounds), fraction=fraction)
            installed = Timeline((spike,)).install(scenario)
            installed.fire_boundary(warmup_rounds)
            per_fraction[fraction] = installed.outcome_of(spike).biggest_cluster_fraction
        result.clusters[protocol] = per_fraction
    return result
