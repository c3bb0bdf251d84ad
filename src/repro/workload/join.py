"""Poisson join processes (the paper's node-arrival model).

Section VII-B: "1000 public nodes and 4000 private nodes join the system following a
Poisson distribution with an inter-arrival time of 50 and 12.5 milliseconds". A Poisson
arrival process has exponentially distributed inter-arrival times, which is what this
module schedules on the scenario's simulator.

:class:`PoissonJoinProcess` is the execution engine of the declarative
:class:`~repro.workload.events.PoissonJoin` timeline event — experiments describe
arrivals as timeline data (:mod:`repro.workload.timeline`).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import ExperimentError
from repro.workload.scenario import BaseScenario


class PoissonJoinProcess:
    """Schedules the arrival of a fixed number of nodes of one class.

    Parameters
    ----------
    scenario:
        The scenario nodes join.
    public:
        Whether this process creates public or private nodes.
    count:
        Total number of nodes to create.
    mean_interarrival_ms:
        Mean of the exponential inter-arrival time.
    start_ms:
        Virtual time of the first possible arrival (arrivals accumulate from here).
    rng:
        Random stream drawing the inter-arrival times. ``None`` (the default, and
        what every single-process-per-class setup uses) derives the canonical
        ``("join", <class>)`` stream from the scenario seed; timelines running
        *several* join processes of the same class pass distinct derived streams so
        the processes stay independent.
    """

    def __init__(
        self,
        scenario: BaseScenario,
        public: bool,
        count: int,
        mean_interarrival_ms: float,
        start_ms: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if count < 0:
            raise ExperimentError(f"count must be non-negative, got {count}")
        if mean_interarrival_ms <= 0:
            raise ExperimentError(
                f"mean_interarrival_ms must be positive, got {mean_interarrival_ms}"
            )
        self.scenario = scenario
        self.public = public
        self.count = count
        self.mean_interarrival_ms = mean_interarrival_ms
        self.start_ms = start_ms
        self.joined = 0
        self.rng = rng or scenario.sim.derive_rng(
            "join", "public" if public else "private"
        )
        self._schedule_arrivals()

    def _schedule_arrivals(self) -> None:
        time = self.start_ms
        for _ in range(self.count):
            time += self.rng.expovariate(1.0 / self.mean_interarrival_ms)
            self.scenario.sim.schedule_at(max(time, self.scenario.sim.now), self._join_one)
        self.expected_last_arrival_ms = time

    def _join_one(self) -> None:
        self.scenario.add_node(public=self.public)
        self.joined += 1

