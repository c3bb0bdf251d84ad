"""Workload and scenario construction: joins, churn, failures, ratio schedules.

The central abstractions are :class:`~repro.workload.scenario.BaseScenario` — the
contract both engines implement: populate, run, churn, kill, control loss and
partitions, and answer measurements as plain data (the object engine's
:class:`~repro.workload.scenario.Scenario` wires a simulator, a network, a bootstrap
registry and protocol nodes behind it) — and the declarative :class:`~repro.workload.timeline.Timeline`: an ordered,
JSON-serializable set of typed workload events
(:mod:`~repro.workload.events`: :class:`PoissonJoin`, :class:`JoinBurst`,
:class:`ChurnPhase`, :class:`RatioGrowth`, :class:`FailureSpike`, :class:`LossBurst`,
:class:`Partition`) that compile onto a scenario as deterministic simulator schedules.
Experiments describe *what happens when* as timeline data; named presets
(``paper-churn``, ``paper-failure``, ``flash-crowd``, ``diurnal``,
``partition-heal``) are registered in :data:`~repro.workload.timeline.TIMELINES` and
double as values of the experiment matrix's ``--timelines`` axis. See
``docs/workload_api.md``.

The process modules are the execution engines timeline events compile into (and what
low-level harnesses may still drive directly):

* :mod:`~repro.workload.join` — Poisson join processes (Section VII-B setups).
* :mod:`~repro.workload.churn` — steady-state churn: replace a fixed fraction of nodes
  per round while preserving the public/private ratio (Figure 5).
* :mod:`~repro.workload.failure` — catastrophic failure: kill a percentage of all nodes
  at one instant (Figure 7b).
* :mod:`~repro.workload.ratio` — dynamic public/private ratio schedules (Figure 2).
"""

from repro.workload.churn import ChurnProcess
from repro.workload.events import (
    EVENT_TYPES,
    ChurnPhase,
    FailureSpike,
    JoinBurst,
    LossBurst,
    Partition,
    PoissonJoin,
    RatioGrowth,
    WorkloadEvent,
    event_type_names,
    register_event,
)
from repro.workload.failure import catastrophic_failure
from repro.workload.join import PoissonJoinProcess
from repro.workload.ratio import RatioGrowthProcess
from repro.workload.scenario import (
    ENGINES,
    BaseScenario,
    NodeHandle,
    Scenario,
    ScenarioConfig,
    create_scenario,
)
from repro.workload.timeline import (
    TIMELINE_SCHEMA,
    TIMELINES,
    InstalledTimeline,
    Timeline,
    TimelinePreset,
    all_timeline_presets,
    get_timeline,
    register_timeline,
    timeline_names,
    unregister_timeline,
)

__all__ = [
    "ENGINES",
    "EVENT_TYPES",
    "TIMELINES",
    "TIMELINE_SCHEMA",
    "BaseScenario",
    "ChurnPhase",
    "ChurnProcess",
    "FailureSpike",
    "InstalledTimeline",
    "JoinBurst",
    "LossBurst",
    "NodeHandle",
    "Partition",
    "PoissonJoin",
    "PoissonJoinProcess",
    "RatioGrowth",
    "RatioGrowthProcess",
    "Scenario",
    "ScenarioConfig",
    "Timeline",
    "TimelinePreset",
    "WorkloadEvent",
    "all_timeline_presets",
    "catastrophic_failure",
    "create_scenario",
    "event_type_names",
    "get_timeline",
    "register_event",
    "register_timeline",
    "timeline_names",
    "unregister_timeline",
]
