"""A small, fast Croupier run used by the quickstart example and smoke tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.metrics.estimation import average_error, max_error
from repro.metrics.graph import (
    average_clustering_coefficient,
    average_path_length,
    build_overlay_graph,
)
from repro.metrics.partition import largest_cluster_fraction
from repro.workload.scenario import Scenario, ScenarioConfig


@dataclass
class QuickRunResult:
    """Summary of a short Croupier run."""

    live_nodes: int
    true_ratio: float
    mean_estimate: Optional[float]
    final_avg_error: Optional[float]
    final_max_error: Optional[float]
    biggest_cluster_fraction: float
    average_path_length: Optional[float]
    clustering_coefficient: Optional[float]
    sample_counts: Dict[str, int]

    def to_text(self) -> str:
        lines = [
            f"live nodes                : {self.live_nodes}",
            f"true public ratio         : {self.true_ratio:.3f}",
            f"mean estimated ratio      : "
            + (f"{self.mean_estimate:.3f}" if self.mean_estimate is not None else "n/a"),
            f"average estimation error  : "
            + (f"{self.final_avg_error:.4f}" if self.final_avg_error is not None else "n/a"),
            f"maximum estimation error  : "
            + (f"{self.final_max_error:.4f}" if self.final_max_error is not None else "n/a"),
            f"biggest cluster fraction  : {self.biggest_cluster_fraction:.3f}",
            f"average path length       : "
            + (
                f"{self.average_path_length:.2f}"
                if self.average_path_length is not None
                else "n/a"
            ),
            f"clustering coefficient    : "
            + (
                f"{self.clustering_coefficient:.3f}"
                if self.clustering_coefficient is not None
                else "n/a"
            ),
            f"samples drawn (public)    : {self.sample_counts.get('public', 0)}",
            f"samples drawn (private)   : {self.sample_counts.get('private', 0)}",
        ]
        return "\n".join(lines)


def quick_croupier_run(
    n_public: int = 20,
    n_private: int = 80,
    rounds: int = 60,
    seed: int = 1,
    samples: int = 200,
    latency: str = "constant",
) -> QuickRunResult:
    """Run a small Croupier system and summarise what the PSS delivers.

    This is intentionally laptop-sized (a couple of seconds); the figure-level
    experiments in this package are the paper-scale equivalents.
    """
    scenario = Scenario(ScenarioConfig(protocol="croupier", seed=seed, latency=latency))
    scenario.populate(n_public=n_public, n_private=n_private)
    scenario.run_rounds(rounds)

    estimates = scenario.ratio_estimates()
    true_ratio = scenario.true_ratio()
    mean_estimate = sum(estimates) / len(estimates) if estimates else None

    graph = build_overlay_graph(scenario.overlay_graph())
    metrics_rng = scenario.sim.derive_rng("quick-metrics")

    # Draw samples through the PSS API, spread over a handful of nodes so the reported
    # public/private mix reflects the service rather than one node's noise.
    sample_counts = {"public": 0, "private": 0}
    handles = scenario.live_handles()
    samplers = handles[: min(10, len(handles))]
    if samplers:
        per_node = max(1, samples // len(samplers))
        for handle in samplers:
            for address in handle.pss.sample_many(per_node):
                if address.is_public:
                    sample_counts["public"] += 1
                else:
                    sample_counts["private"] += 1

    return QuickRunResult(
        live_nodes=scenario.live_count(),
        true_ratio=true_ratio,
        mean_estimate=mean_estimate,
        final_avg_error=average_error(true_ratio, estimates),
        final_max_error=max_error(true_ratio, estimates),
        biggest_cluster_fraction=largest_cluster_fraction(graph),
        average_path_length=average_path_length(graph, sample_sources=30, rng=metrics_rng),
        clustering_coefficient=average_clustering_coefficient(graph),
        sample_counts=sample_counts,
    )
