"""Ablation experiments for three of Croupier's design choices (A1, A3 and A4).

These are not figures from the paper; they probe *why* Croupier is built the way it is:

* **A1 — split views vs. a single NAT-oblivious view** — run Croupier and Cyclon over
  the same NATed population and compare how well private nodes are represented in the
  views and samples. A NAT-oblivious PSS under-represents private nodes (the problem
  statement of the paper's introduction).
* **A3 — estimate piggy-backing bound** — sweep ``max_estimates_per_message`` and
  measure both estimation error and per-message overhead to expose the trade-off.
* **A4 — tail vs. random partner selection** — compare the estimation accuracy and the
  staleness of views under the two selection policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import CroupierConfig
from repro.experiments.report import format_table
from repro.membership.policies import SelectionPolicy
from repro.metrics.estimation import average_error
from repro.workload.scenario import Scenario, ScenarioConfig


# ----------------------------------------------------------------------------- A1


@dataclass
class ViewRepresentationResult:
    """How well private nodes are represented, per protocol (ablation A1)."""

    true_private_fraction: float
    #: protocol -> fraction of view entries (over all nodes) that point at private nodes
    private_fraction_in_views: Dict[str, float] = field(default_factory=dict)
    #: protocol -> fraction of drawn samples that are private nodes
    private_fraction_in_samples: Dict[str, float] = field(default_factory=dict)

    def representation_bias(self, protocol: str) -> float:
        """True private fraction minus sampled private fraction (positive = under-represented)."""
        return self.true_private_fraction - self.private_fraction_in_samples[protocol]

    def to_text(self) -> str:
        rows = [
            [
                protocol,
                self.private_fraction_in_views.get(protocol),
                self.private_fraction_in_samples.get(protocol),
                self.representation_bias(protocol),
            ]
            for protocol in self.private_fraction_in_samples
        ]
        return format_table(
            ["protocol", "private in views", "private in samples", "bias"],
            rows,
            title=(
                "Ablation A1: representation of private nodes "
                f"(true private fraction = {self.true_private_fraction:.2f})"
            ),
        )


def run_view_representation_ablation(
    protocols: Sequence[str] = ("croupier", "cyclon", "gozar", "nylon"),
    total_nodes: int = 200,
    public_ratio: float = 0.2,
    rounds: int = 100,
    samples_per_node: int = 20,
    seed: int = 42,
    latency: str = "constant",
) -> ViewRepresentationResult:
    """Ablation A1: do private nodes stay represented in views and samples?

    Unlike the paper's Cyclon baseline (public nodes only), Cyclon here runs over the
    *same* NATed population as the others, which is exactly the configuration where a
    NAT-oblivious protocol degrades.
    """
    n_public = max(1, int(round(total_nodes * public_ratio)))
    n_private = total_nodes - n_public
    true_private_fraction = n_private / total_nodes
    result = ViewRepresentationResult(true_private_fraction=true_private_fraction)

    for protocol in protocols:
        scenario = Scenario(ScenarioConfig(protocol=protocol, seed=seed, latency=latency))
        scenario.populate(n_public=n_public, n_private=n_private)
        scenario.run_rounds(rounds)

        view_entries = 0
        private_entries = 0
        private_samples = 0
        total_samples = 0
        for handle in scenario.live_handles():
            for address in handle.pss.neighbor_addresses():
                view_entries += 1
                if address.is_private:
                    private_entries += 1
            for address in handle.pss.sample_many(samples_per_node):
                total_samples += 1
                if address.is_private:
                    private_samples += 1
        result.private_fraction_in_views[protocol] = (
            private_entries / view_entries if view_entries else 0.0
        )
        result.private_fraction_in_samples[protocol] = (
            private_samples / total_samples if total_samples else 0.0
        )
    return result


# ----------------------------------------------------------------------------- A3


@dataclass
class PiggybackBoundResult:
    """Estimation error and message size as a function of the piggy-back bound (A3)."""

    #: bound -> final average estimation error
    avg_error_by_bound: Dict[int, Optional[float]] = field(default_factory=dict)
    #: bound -> mean shuffle-message wire size (bytes)
    message_bytes_by_bound: Dict[int, float] = field(default_factory=dict)

    def to_text(self) -> str:
        rows = [
            [bound, self.avg_error_by_bound[bound], self.message_bytes_by_bound.get(bound)]
            for bound in sorted(self.avg_error_by_bound)
        ]
        return format_table(
            ["max estimates/msg", "final avg error", "mean shuffle bytes"],
            rows,
            title="Ablation A3: estimate piggy-backing bound",
        )


def run_piggyback_bound_ablation(
    bounds: Sequence[int] = (0, 2, 5, 10, 20),
    total_nodes: int = 150,
    public_ratio: float = 0.2,
    rounds: int = 100,
    seed: int = 42,
    latency: str = "constant",
) -> PiggybackBoundResult:
    """Ablation A3: sweep the number of estimates piggy-backed on each shuffle message."""
    n_public = max(1, int(round(total_nodes * public_ratio)))
    n_private = total_nodes - n_public
    result = PiggybackBoundResult()
    for bound in bounds:
        config = CroupierConfig(max_estimates_per_message=bound)
        scenario = Scenario(
            ScenarioConfig(protocol="croupier", seed=seed, latency=latency, pss_config=config)
        )
        scenario.populate(n_public=n_public, n_private=n_private)
        scenario.run_rounds(rounds)
        estimates = scenario.ratio_estimates()
        result.avg_error_by_bound[bound] = average_error(scenario.true_ratio(), estimates)
        # Average shuffle message size over the whole run.
        total_bytes = 0
        total_msgs = 0
        for handle in scenario.live_handles():
            traffic = scenario.monitor.node_traffic(handle.node_id)
            for type_name in ("ShuffleRequest", "ShuffleResponse"):
                total_bytes += traffic.tx_by_type.get(type_name, 0)
            total_msgs += traffic.tx_messages
        result.message_bytes_by_bound[bound] = (
            total_bytes / total_msgs if total_msgs else 0.0
        )
    return result


# ----------------------------------------------------------------------------- A4


@dataclass
class SelectionPolicyResult:
    """Estimation error and view staleness for tail vs. random partner selection (A4)."""

    avg_error_by_policy: Dict[str, Optional[float]] = field(default_factory=dict)
    mean_view_age_by_policy: Dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        rows = [
            [
                policy,
                self.avg_error_by_policy[policy],
                self.mean_view_age_by_policy.get(policy),
            ]
            for policy in self.avg_error_by_policy
        ]
        return format_table(
            ["selection policy", "final avg error", "mean descriptor age"],
            rows,
            title="Ablation A4: tail vs. random partner selection",
        )


def run_selection_policy_ablation(
    total_nodes: int = 150,
    public_ratio: float = 0.2,
    rounds: int = 100,
    seed: int = 42,
    latency: str = "constant",
) -> SelectionPolicyResult:
    """Ablation A4: compare tail and random selection for Croupier's partner choice.

    Croupier always uses the tail policy (oldest descriptor); this ablation quantifies
    what random selection would change — typically similar error but older descriptors
    lingering in views (staler membership information).
    """
    result = SelectionPolicyResult()
    n_public = max(1, int(round(total_nodes * public_ratio)))
    n_private = total_nodes - n_public
    for policy in (SelectionPolicy.TAIL, SelectionPolicy.RANDOM):
        config = CroupierConfig(selection=policy)
        scenario = Scenario(
            ScenarioConfig(protocol="croupier", seed=seed, latency=latency, pss_config=config)
        )
        scenario.populate(n_public=n_public, n_private=n_private)
        scenario.run_rounds(rounds)
        estimates = scenario.ratio_estimates()
        result.avg_error_by_policy[policy.value] = average_error(
            scenario.true_ratio(), estimates
        )
        ages: List[int] = []
        for handle in scenario.live_handles():
            pss = handle.pss
            ages.extend(d.age for d in pss.public_view)
            ages.extend(d.age for d in pss.private_view)
        result.mean_view_age_by_policy[policy.value] = (
            sum(ages) / len(ages) if ages else 0.0
        )
    return result
