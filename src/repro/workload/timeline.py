"""Declarative workload timelines: scenario dynamics as composable, serializable data.

A :class:`Timeline` is an ordered tuple of typed
:class:`~repro.workload.events.WorkloadEvent` specs — the whole dynamic shape of an
experiment (who joins when, which churn phases run, when disaster strikes) as *data*
rather than hand-wired processes. Timelines

* serialize to/from JSON in a canonical, schema-versioned form (:meth:`Timeline.to_json`
  is byte-stable: parse → serialize reproduces the exact bytes);
* carry a short content :attr:`~Timeline.digest` that the experiment matrix embeds in
  cell keys, so two cells agree on their timeline iff they agree on its bytes;
* **install** onto a :class:`~repro.workload.scenario.BaseScenario` deterministically: scheduled
  events compile onto the simulator in timeline order (drawing any randomness from
  seed-derived streams), while *boundary* events (failure spikes) are collected for
  the measurement loop to fire between rounds via
  :meth:`InstalledTimeline.fire_boundary`.

Named timelines are registered like protocols (:func:`register_timeline`); the built-in
presets cover the paper's dynamic setups (``paper-churn``, ``paper-failure``) plus
workloads the paper never ran (``flash-crowd``, ``diurnal``, ``partition-heal``). The
``repro matrix --timelines`` axis accepts any registered name.

Example
-------
>>> from repro.workload import ChurnPhase, FailureSpike, Timeline
>>> timeline = Timeline((
...     ChurnPhase(fraction_per_round=0.01, start_round=10.0),
...     FailureSpike(at_round=40.0, fraction=0.5),
... ))
>>> Timeline.from_json(timeline.to_json()) == timeline
True
>>> len(timeline.digest)
10
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, ExperimentError
from repro.workload.events import (
    ChurnPhase,
    CompileContext,
    FailureSpike,
    JoinBurst,
    LossBurst,
    Partition,
    WorkloadEvent,
)
from repro.workload.scenario import BaseScenario

#: Schema tag of the serialized form; bump when the timeline JSON layout changes.
TIMELINE_SCHEMA = "repro-timeline-v1"

#: Length of the content digest embedded in matrix cell keys.
DIGEST_LENGTH = 10


@dataclass(frozen=True)
class Timeline:
    """An ordered, immutable set of workload events (the experiment's dynamics)."""

    events: Tuple[WorkloadEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    # ------------------------------------------------------------------ construction

    def extended(self, *events: WorkloadEvent) -> "Timeline":
        """A new timeline with ``events`` appended (timelines compose by suffixing —
        e.g. a warmed shared prefix branching into per-treatment suffixes)."""
        return Timeline(self.events + tuple(events))

    def scaled(self, factor: float) -> "Timeline":
        """The same dynamic *shape* on a stretched or compressed round axis: every
        event's round-valued fields (:data:`~repro.workload.events.
        ROUND_SCALED_FIELDS`) multiplied by ``factor``. Rates and absolute sizes
        are untouched, so a 2%-per-round churn wave stays 2% per round — it just
        starts and stops proportionally earlier. ``factor=1`` returns ``self``."""
        if factor == 1.0:
            return self
        return Timeline(tuple(event.scaled(factor) for event in self.events))

    def validate(self) -> None:
        for event in self.events:
            if not isinstance(event, WorkloadEvent):
                raise ExperimentError(f"not a workload event: {event!r}")
            event.validate()
        # LossBurst and Partition each occupy one exclusive slot on the network
        # (the loss model, the partition rule); overlapping windows of the same
        # kind would restore/heal each other's state in the wrong order, so a
        # timeline must keep them disjoint.
        for kind in (LossBurst, Partition):
            windows = sorted(
                (event.start_round, event.stop_round)
                for event in self.events
                if isinstance(event, kind)
            )
            for (_, stop), (next_start, _) in zip(windows, windows[1:]):
                if next_start < stop:
                    raise ExperimentError(
                        f"overlapping {kind.type} windows: one stops at round "
                        f"{stop:g} after the next starts at round {next_start:g}"
                    )

    # ------------------------------------------------------------------ queries

    # ------------------------------------------------------------------ serialization

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema": TIMELINE_SCHEMA,
            "events": [event.to_json_dict() for event in self.events],
        }

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, compact separators — the byte form
        the digest hashes and the round-trip tests pin."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "Timeline":
        schema = data.get("schema")
        if schema != TIMELINE_SCHEMA:
            raise ConfigurationError(
                f"unknown timeline schema {schema!r}; expected {TIMELINE_SCHEMA!r}"
            )
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ConfigurationError("timeline 'events' must be a list")
        return cls(tuple(WorkloadEvent.from_json_dict(event) for event in events))

    @classmethod
    def from_json(cls, text: str) -> "Timeline":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"timeline is not valid JSON: {error}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("timeline JSON must be an object")
        return cls.from_json_dict(data)

    @property
    def digest(self) -> str:
        """Short, stable content hash (over the canonical JSON bytes) — what matrix
        cell keys embed, so a cell's derived seed changes iff its timeline does."""
        raw = hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()
        return raw[:DIGEST_LENGTH]

    # ------------------------------------------------------------------ installation

    def install(
        self, scenario: BaseScenario, horizon_rounds: Optional[float] = None
    ) -> "InstalledTimeline":
        """Compile this timeline onto ``scenario``.

        Scheduled events compile immediately, in timeline order (so two installs of
        the same timeline schedule identically — the determinism the matrix parity
        gate relies on); boundary events are collected for the caller's measurement
        loop to fire via :meth:`InstalledTimeline.fire_boundary`.

        ``horizon_rounds`` is the caller's measurement horizon (a cell's ``rounds``).
        When given, any event whose onset lies beyond it draws a ``UserWarning``:
        the event would silently never fire — the footgun behind every
        "why is my churn timeline a no-op at rounds=30" report. Boundary events at
        *exactly* the horizon still fire (:meth:`InstalledTimeline.fire_boundary`
        is inclusive), so only strictly-later onsets warn for them; scheduled events
        starting at or past the horizon never act, so both warn.
        """
        self.validate()
        if horizon_rounds is not None:
            for event in self.events:
                onset = event.onset_round
                if onset is None:
                    continue
                is_boundary = event.boundary_round is not None
                if onset > horizon_rounds or (not is_boundary and onset >= horizon_rounds):
                    warnings.warn(
                        f"timeline event {event.type!r} starts at round {onset:g}, "
                        f"beyond the measurement horizon of {horizon_rounds:g} "
                        "rounds — it will never fire",
                        UserWarning,
                        stacklevel=2,
                    )
        processes: List[object] = []
        boundary: List[Tuple[float, int, WorkloadEvent]] = []
        for index, event in enumerate(self.events):
            at_round = event.boundary_round
            if at_round is not None:
                boundary.append((at_round, index, event))
                continue
            handle = event.compile(CompileContext(scenario=scenario, index=index))
            if handle is not None:
                processes.append(handle)
        boundary.sort(key=lambda entry: (entry[0], entry[1]))
        return InstalledTimeline(
            timeline=self, scenario=scenario, processes=processes, boundary=boundary
        )


@dataclass
class InstalledTimeline:
    """A timeline compiled onto one scenario: live process handles plus the boundary
    events still waiting for the measurement loop to cross their round."""

    timeline: Timeline
    scenario: BaseScenario
    #: Handles the scheduled events returned (one per event that scheduled work).
    processes: List[object] = field(default_factory=list)
    #: ``(round, timeline_index, event)`` entries, sorted, not yet fired.
    boundary: List[Tuple[float, int, WorkloadEvent]] = field(default_factory=list)
    #: ``(event, outcome)`` pairs of every boundary event fired so far.
    outcomes: List[Tuple[WorkloadEvent, object]] = field(default_factory=list)
    _fired: int = 0

    @property
    def pending_boundary(self) -> List[WorkloadEvent]:
        return [event for _, _, event in self.boundary[self._fired:]]

    def advance_rounds(self, rounds: float) -> None:
        """Advance the scenario by ``rounds`` gossip rounds, firing boundary events
        *at their declared boundary* along the way.

        Drivers that simulate in large steps (a warm-up of N rounds, a
        measure-every-K loop) use this instead of ``run_rounds`` + a trailing
        :meth:`fire_boundary`, so an axis timeline's failure spike at round 61 fires
        at round 61 even inside a single 70-round advance. With no boundary event
        pending the call is *exactly* ``scenario.run_rounds(rounds)`` — the same
        float arithmetic, so timeline-free cells replay bit for bit.
        """
        scenario = self.scenario
        if self._fired >= len(self.boundary):
            scenario.run_rounds(rounds)
            return
        round_ms = scenario.round_ms
        target_ms = scenario.now + rounds * round_ms
        while self._fired < len(self.boundary):
            at_round, _, _ = self.boundary[self._fired]
            at_ms = at_round * round_ms
            if at_ms > target_ms:
                break
            if at_ms > scenario.now:
                scenario.run_ms(at_ms - scenario.now)
            self.fire_boundary(at_round)
        if scenario.now < target_ms:
            scenario.run_ms(target_ms - scenario.now)

    def fire_boundary(self, up_to_round: float) -> List[object]:
        """Fire every not-yet-fired boundary event with ``round <= up_to_round``.

        Called by measurement loops right after advancing the simulation past a
        round boundary — the exact point the imperative harnesses applied failures —
        so a boundary event at round *r* acts after round *r* completes and before
        that round's measurement. Returns the outcomes fired by this call.
        """
        fired: List[object] = []
        while self._fired < len(self.boundary):
            at_round, _, event = self.boundary[self._fired]
            if at_round > up_to_round:
                break
            self._fired += 1
            outcome = event.apply(self.scenario)
            self.outcomes.append((event, outcome))
            fired.append(outcome)
        return fired


# ---------------------------------------------------------------------- registry


@dataclass(frozen=True)
class TimelinePreset:
    """One registered named timeline (mirrors the protocol plugin registry).

    ``authored_horizon_rounds`` is the measurement horizon the preset's round
    numbers were written for. When set, :meth:`timeline_for_horizon` compresses
    the preset proportionally onto shorter horizons (a diurnal cycle authored
    over 120 rounds still completes both waves in a 60-round cell) instead of
    silently never firing. ``None`` — the paper presets, whose absolute round
    numbers (churn at t=61) *are* the figure being reproduced — never scales.
    Cell keys and digests always hash the *authored* timeline, so scaling can
    never re-seed a cell.
    """

    name: str
    timeline: Timeline
    description: str = ""
    authored_horizon_rounds: Optional[float] = None

    def timeline_for_horizon(self, horizon_rounds: Optional[float]) -> Timeline:
        """The preset's timeline as installed at ``horizon_rounds``: compressed by
        ``horizon / authored`` when the horizon is shorter than the preset was
        authored for, verbatim otherwise (scaling never stretches)."""
        authored = self.authored_horizon_rounds
        if (
            horizon_rounds is None
            or authored is None
            or authored <= 0
            or horizon_rounds >= authored
        ):
            return self.timeline
        return self.timeline.scaled(horizon_rounds / authored)


#: Global named-timeline registry, filled below and by callers of
#: :func:`register_timeline` (tests, notebooks, CLI-loaded JSON files).
TIMELINES: Dict[str, TimelinePreset] = {}


def register_timeline(
    name: str,
    timeline: Timeline,
    description: str = "",
    replace: bool = False,
    authored_horizon_rounds: Optional[float] = None,
) -> TimelinePreset:
    """Register ``timeline`` under ``name`` (the ``--timelines`` axis vocabulary).

    ``authored_horizon_rounds`` marks the horizon the preset's round numbers were
    written for, enabling proportional compression onto shorter cells (see
    :meth:`TimelinePreset.timeline_for_horizon`).

    Like scenario kinds, registrations made at import time of an importable module
    are visible to pool workers under any start method; run-time registrations rely
    on a fork start method (or ``workers=1``).
    """
    if name in TIMELINES and not replace:
        raise ConfigurationError(f"timeline {name!r} already registered")
    timeline.validate()
    if authored_horizon_rounds is not None and authored_horizon_rounds <= 0:
        raise ConfigurationError(
            f"authored_horizon_rounds must be positive, got {authored_horizon_rounds}"
        )
    preset = TimelinePreset(
        name=name,
        timeline=timeline,
        description=description,
        authored_horizon_rounds=authored_horizon_rounds,
    )
    TIMELINES[name] = preset
    return preset


def unregister_timeline(name: str) -> None:
    """Remove a registered timeline (tests only)."""
    TIMELINES.pop(name, None)


def get_timeline(name: str) -> Timeline:
    try:
        return TIMELINES[name].timeline
    except KeyError:
        raise ConfigurationError(
            f"unknown timeline {name!r}; registered: {timeline_names()}"
        ) from None


def timeline_names() -> List[str]:
    return sorted(TIMELINES)


def all_timeline_presets() -> List[TimelinePreset]:
    return [TIMELINES[name] for name in timeline_names()]


# ---------------------------------------------------------------------- presets

register_timeline(
    "paper-churn",
    Timeline((ChurnPhase(fraction_per_round=0.01, start_round=61.0),)),
    description="Figure 5's steady-state churn: 1%/round of each node class replaced "
    "from t=61 onward",
)

register_timeline(
    "paper-failure",
    Timeline((FailureSpike(at_round=61.0, fraction=0.5),)),
    description="Figure 7(b)'s catastrophic failure: half of all nodes die at the "
    "t=61 round boundary",
)

register_timeline(
    "flash-crowd",
    Timeline((JoinBurst(at_round=30.0, fraction=0.5, public_share=0.2,
                        spread_rounds=2.0),)),
    description="a flash crowd: 50% extra population joins within two rounds of t=30 "
    "(public share 0.2)",
    authored_horizon_rounds=60.0,
)

register_timeline(
    "diurnal",
    Timeline((
        ChurnPhase(fraction_per_round=0.02, start_round=20.0, stop_round=50.0,
                   ramp_rounds=10.0),
        ChurnPhase(fraction_per_round=0.02, start_round=70.0, stop_round=100.0,
                   ramp_rounds=10.0),
    )),
    description="two ramped 2%/round churn waves (rounds 20-50 and 70-100) modelling "
    "day/night session cycles",
    authored_horizon_rounds=120.0,
)

register_timeline(
    "partition-heal",
    Timeline((Partition(start_round=30.0, stop_round=40.0, fraction=0.5),)),
    description="half the population is partitioned away at t=30 and the split heals "
    "at t=40",
    authored_horizon_rounds=60.0,
)
