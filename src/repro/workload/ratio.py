"""Dynamic public/private ratio schedules (the Figure 2 workload).

The paper's dynamic-ratio experiment joins 1000 public and 4000 private nodes (ratio
0.2... actually the text states the pre-growth ratio as 0.3 for that plot's scale),
waits a few rounds, and then adds one new public node every 42 ms until the ratio has
risen by a few points, after which it stays constant. :class:`RatioGrowthProcess`
generalises that: add ``count`` public nodes at a fixed interval starting at a given
time. It is the execution engine of the declarative
:class:`~repro.workload.events.RatioGrowth` timeline event.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.workload.scenario import BaseScenario


class RatioGrowthProcess:
    """Adds public nodes at a constant rate, raising the public/private ratio."""

    def __init__(
        self,
        scenario: BaseScenario,
        start_ms: float,
        interval_ms: float,
        count: int,
    ) -> None:
        if interval_ms <= 0:
            raise ExperimentError(f"interval_ms must be positive, got {interval_ms}")
        if count < 0:
            raise ExperimentError(f"count must be non-negative, got {count}")
        self.scenario = scenario
        self.start_ms = start_ms
        self.interval_ms = interval_ms
        self.count = count
        self.added = 0
        for index in range(count):
            scenario.sim.schedule_at(start_ms + index * interval_ms, self._add_one)

    def _add_one(self) -> None:
        self.scenario.add_node(public=True)
        self.added += 1

    @property
    def end_ms(self) -> float:
        """Virtual time at which the last scheduled addition happens."""
        if self.count == 0:
            return self.start_ms
        return self.start_ms + (self.count - 1) * self.interval_ms
