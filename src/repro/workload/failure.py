"""Catastrophic failure: a large fraction of nodes disappears at one instant (Fig. 7b).

:func:`catastrophic_failure` is what the declarative
:class:`~repro.workload.events.FailureSpike` timeline event applies when the
measurement loop crosses its round boundary
(:meth:`~repro.workload.timeline.InstalledTimeline.fire_boundary`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ExperimentError
from repro.metrics.graph import build_overlay_graph
from repro.metrics.partition import largest_cluster_fraction
from repro.workload.scenario import BaseScenario


@dataclass
class FailureOutcome:
    """What happened when the failure was injected, plus the immediate connectivity."""

    killed_node_ids: List[int]
    survivors: int
    biggest_cluster_fraction: float


def catastrophic_failure(
    scenario: BaseScenario,
    failure_fraction: float,
    settle_rounds: int = 0,
) -> FailureOutcome:
    """Kill ``failure_fraction`` of all live nodes at the current instant.

    Parameters
    ----------
    scenario:
        The running scenario.
    failure_fraction:
        Fraction of live nodes (public and private alike, chosen uniformly) to kill.
    settle_rounds:
        Optional number of gossip rounds to run *after* the failure before measuring
        connectivity (the paper measures the biggest cluster of the surviving overlay;
        running a few rounds lets in-flight messages drain but also lets the protocol
        start repairing, so the default is 0 = measure immediately).

    Returns
    -------
    FailureOutcome
        Includes the biggest-cluster fraction over the surviving nodes — the Figure 7(b)
        y-value for this failure percentage.
    """
    if not 0.0 <= failure_fraction <= 1.0:
        raise ExperimentError(f"failure_fraction out of range: {failure_fraction}")
    killed = scenario.kill_random_fraction(failure_fraction)
    if settle_rounds > 0:
        scenario.run_rounds(settle_rounds)
    graph = build_overlay_graph(scenario.overlay_graph())
    return FailureOutcome(
        killed_node_ids=killed,
        survivors=scenario.live_count(),
        biggest_cluster_fraction=largest_cluster_fraction(graph),
    )
