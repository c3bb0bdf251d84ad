"""Steady-state churn: continuous node replacement at a fixed per-round rate.

The paper (Figure 5): "We model churn by replacing a fixed fraction of randomly selected
public and private nodes with new nodes at each gossiping round, but keeping the ratio
of public to private nodes stable." The baseline rate of 0.1 %/round corresponds to a
mean session length of about 15 minutes with one-second rounds; the experiments push it
up to 5 %/round (50× the rates measured in real systems).

:class:`ChurnProcess` is the execution engine the declarative
:class:`~repro.workload.events.ChurnPhase` timeline event compiles into — experiments
describe churn as timeline data (:mod:`repro.workload.timeline`) and only tests and
low-level harnesses construct the process directly.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ExperimentError
from repro.workload.scenario import BaseScenario


class ChurnProcess:
    """Replaces ``fraction_per_round`` of each node class every gossip round.

    Parameters
    ----------
    scenario:
        The scenario whose population churns.
    fraction_per_round:
        Target replacement fraction per gossip round (of each node class).
    start_ms / stop_ms:
        The phase's window in virtual time. Ticks start at ``start_ms`` (which may
        fall mid-round — the tick grid is anchored there, not on round boundaries)
        and stop once the clock reaches ``stop_ms``. ``stop_ms`` must lie strictly
        after ``start_ms``.
    ramp_rounds:
        Optional linear onset: the effective fraction grows from
        ``fraction_per_round / ramp_rounds`` at the first tick to the full rate after
        ``ramp_rounds`` ticks. ``0`` (the default) churns at the full rate from the
        first tick, exactly as before the ramp existed.
    """

    def __init__(
        self,
        scenario: BaseScenario,
        fraction_per_round: float,
        start_ms: float = 0.0,
        stop_ms: Optional[float] = None,
        ramp_rounds: float = 0.0,
    ) -> None:
        if not 0.0 <= fraction_per_round <= 1.0:
            raise ExperimentError(
                f"fraction_per_round out of range: {fraction_per_round}"
            )
        if stop_ms is not None and stop_ms <= start_ms:
            raise ExperimentError(
                f"churn stop_ms={stop_ms} must be after start_ms={start_ms}"
            )
        if ramp_rounds < 0:
            raise ExperimentError(f"ramp_rounds must be non-negative: {ramp_rounds}")
        self.scenario = scenario
        self.fraction_per_round = fraction_per_round
        self.start_ms = start_ms
        self.stop_ms = stop_ms
        self.ramp_rounds = ramp_rounds
        self.total_replaced = 0
        self.rounds_executed = 0
        self._schedule_next(max(start_ms, scenario.sim.now))

    def _schedule_next(self, at_ms: float) -> None:
        self.scenario.sim.schedule_at(at_ms, self._tick)

    def _effective_fraction(self) -> float:
        """The fraction this tick churns — ramped linearly while the phase warms up."""
        if self.ramp_rounds <= 0:
            return self.fraction_per_round
        progress = min(1.0, (self.rounds_executed + 1) / self.ramp_rounds)
        return self.fraction_per_round * progress

    def _tick(self) -> None:
        if self.stop_ms is not None and self.scenario.sim.now >= self.stop_ms:
            return
        fraction = self._effective_fraction()
        if fraction > 0.0:
            self.total_replaced += self.scenario.churn_step(fraction)
        self.rounds_executed += 1
        self._schedule_next(self.scenario.sim.now + self.scenario.round_ms)

    @property
    def replacement_rate_per_second(self) -> float:
        """The configured churn rate expressed per second of virtual time."""
        return self.fraction_per_round / (self.scenario.round_ms / 1000.0)
