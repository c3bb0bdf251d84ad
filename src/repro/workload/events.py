"""Typed workload-timeline events: the vocabulary scenario dynamics are written in.

Each event class is a frozen, validated, JSON-round-trippable dataclass describing one
piece of workload dynamics — a Poisson join ramp, a churn phase, a failure spike — in
*rounds* of virtual time. Events are registered in :data:`EVENT_TYPES` (mirroring the
protocol registry in :mod:`repro.membership.plugin`), so a serialized timeline names
its events by ``type`` and new event kinds are a registration, not an edit to the
scenario builder.

Events come in two execution flavours:

* **scheduled** events (:class:`PoissonJoin`, :class:`ChurnPhase`,
  :class:`RatioGrowth`, :class:`JoinBurst`, :class:`LossBurst`, :class:`Partition`)
  compile onto the scenario's simulator when the timeline is installed, usually by
  instantiating the corresponding process in :mod:`repro.workload.join` /
  :mod:`~repro.workload.churn` / :mod:`~repro.workload.ratio`;
* **boundary** events (:class:`FailureSpike`) fire *between* gossip rounds, applied by
  the driving measurement loop through
  :meth:`~repro.workload.timeline.InstalledTimeline.fire_boundary` — exactly where the
  imperative harnesses used to call :func:`~repro.workload.failure.catastrophic_failure`
  by hand, so rewriting a harness as a timeline changes no event ordering.

Randomness: events that wrap a legacy process inherit that process's seed-derived
stream (``("join", <class>)``, the scenario RNG for churn and failures), keeping
timeline-built experiments bit-identical to their imperative predecessors; events
without a legacy counterpart draw from ``("timeline", <index>, <type>)`` streams
derived per event position, so adding one event never perturbs another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Callable, ClassVar, Dict, List, Optional, Tuple, Type

from repro.errors import ConfigurationError, ExperimentError
from repro.workload.churn import ChurnProcess
from repro.workload.join import PoissonJoinProcess
from repro.workload.ratio import RatioGrowthProcess
from repro.workload.scenario import BaseScenario


#: Event fields measured in rounds of virtual time — what
#: :meth:`WorkloadEvent.scaled` multiplies when a preset authored for a longer
#: horizon is compressed onto a shorter cell. Rates (``fraction_per_round``) and
#: millisecond-valued fields (``interval_ms``) deliberately stay fixed.
ROUND_SCALED_FIELDS = (
    "start_round",
    "stop_round",
    "at_round",
    "spread_rounds",
    "ramp_rounds",
)


@dataclass(frozen=True)
class CompileContext:
    """What an event sees when a timeline is installed onto a scenario."""

    scenario: BaseScenario
    #: Position of the event in its timeline (stable across runs — the RNG label).
    index: int

    def derive_rng(self, event: "WorkloadEvent", *labels: object) -> random.Random:
        """A reproducible stream owned by this event alone."""
        return self.scenario.sim.derive_rng("timeline", self.index, event.type, *labels)


class WorkloadEvent:
    """Base class of all timeline events (subclasses are frozen dataclasses).

    Subclasses set the class-level ``type`` registry key, implement
    :meth:`validate` and — for scheduled events — :meth:`compile`; boundary events
    override :attr:`boundary_round` and :meth:`apply` instead.
    """

    #: Registry key, also the ``"type"`` field of the serialized form.
    type: ClassVar[str] = ""

    # ------------------------------------------------------------------ contract

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ExperimentError` on out-of-range fields."""

    def compile(self, ctx: CompileContext) -> Optional[object]:
        """Schedule this event onto ``ctx.scenario``; returns the process handle (or
        ``None`` when the event schedules nothing). Boundary events keep the default
        no-op — they fire through :meth:`apply`."""
        return None

    @property
    def boundary_round(self) -> Optional[float]:
        """The round boundary this event fires at (``None`` for scheduled events)."""
        return None

    @property
    def onset_round(self) -> Optional[float]:
        """The round at which this event first acts — ``at_round`` for boundary
        events, ``start_round`` for scheduled ones (``None`` when the event carries
        neither). :meth:`Timeline.install` compares this against the cell's
        measurement horizon to warn about events that could never fire."""
        boundary = self.boundary_round
        if boundary is not None:
            return boundary
        start = getattr(self, "start_round", getattr(self, "at_round", None))
        return float(start) if start is not None else None

    def apply(self, scenario: BaseScenario) -> Optional[object]:
        """Execute a boundary event; returns its outcome object."""
        raise ExperimentError(f"event {self.type!r} is not a boundary event")

    def scaled(self, factor: float) -> "WorkloadEvent":
        """A copy with every round-valued field multiplied by ``factor``.

        Round-valued means onsets, stops and round-counted durations
        (:data:`ROUND_SCALED_FIELDS`); rates and millisecond-valued fields are
        left alone. This is how a timeline preset authored for one measurement
        horizon compresses onto a shorter one while keeping its shape — a churn
        wave over the middle third of the run stays over the middle third.
        Returns ``self`` when the event carries no round-valued fields.
        """
        if factor <= 0.0:
            raise ExperimentError(f"scale factor must be positive, got {factor}")
        changes: Dict[str, float] = {}
        for field in fields(self):  # type: ignore[arg-type]
            if field.name not in ROUND_SCALED_FIELDS:
                continue
            value = getattr(self, field.name)
            if value is not None:
                changes[field.name] = float(value) * factor
        if not changes:
            return self
        return replace(self, **changes)  # type: ignore[type-var]

    # ------------------------------------------------------------------ serialization

    def to_json_dict(self) -> Dict[str, object]:
        """The event as plain JSON data: ``type`` plus every dataclass field."""
        data: Dict[str, object] = {"type": self.type}
        for field in fields(self):  # type: ignore[arg-type]
            data[field.name] = getattr(self, field.name)
        return data

    @staticmethod
    def from_json_dict(data: Dict[str, object]) -> "WorkloadEvent":
        """Rebuild a registered event from its JSON form (inverse of
        :meth:`to_json_dict`; unknown types and unknown fields fail loudly)."""
        payload = dict(data)
        type_name = payload.pop("type", None)
        if not isinstance(type_name, str) or type_name not in EVENT_TYPES:
            raise ConfigurationError(
                f"unknown workload event type {type_name!r}; registered: "
                f"{event_type_names()}"
            )
        cls = EVENT_TYPES[type_name]
        try:
            event = cls(**payload)
        except TypeError as error:
            raise ConfigurationError(
                f"bad fields for workload event {type_name!r}: {error}"
            ) from None
        event.validate()
        return event


#: The global event-type registry, filled by the ``@register_event`` decorations below.
EVENT_TYPES: Dict[str, Type[WorkloadEvent]] = {}


def register_event(cls: Type[WorkloadEvent]) -> Type[WorkloadEvent]:
    """Class decorator registering an event type under its ``type`` key."""
    if not cls.type:
        raise ConfigurationError(f"event class {cls.__name__} declares no type key")
    if cls.type in EVENT_TYPES:
        raise ConfigurationError(f"workload event type {cls.type!r} already registered")
    EVENT_TYPES[cls.type] = cls
    return cls


def event_type_names() -> List[str]:
    return sorted(EVENT_TYPES)


def _as_float(value: object, field_name: str) -> float:
    """Coerce JSON numbers to float so parse → serialize is canonical (61 == 61.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExperimentError(f"{field_name} must be a number, got {value!r}")
    return float(value)


def _as_int(value: object, field_name: str) -> int:
    """Coerce integral JSON numbers to int (``100.0`` → ``100``); anything else —
    a fractional count would crash ``range()`` deep inside a cell — fails loudly
    at construction time."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExperimentError(f"{field_name} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ExperimentError(f"{field_name} must be an integer, got {value!r}")
        return int(value)
    return value


# ---------------------------------------------------------------------- join events


@register_event
@dataclass(frozen=True)
class PoissonJoin(WorkloadEvent):
    """A fixed number of one node class joins following a Poisson arrival process
    (the paper's Section VII-B workload; compiles to
    :class:`~repro.workload.join.PoissonJoinProcess`)."""

    type: ClassVar[str] = "poisson_join"

    public: bool
    count: int
    mean_interarrival_ms: float
    start_round: float = 0.0
    #: ``""`` uses the canonical per-class ``("join", <class>)`` stream (what every
    #: single-process-per-class experiment, and therefore the legacy bit-identical
    #: builders, use); set a distinct label when one timeline runs several Poisson
    #: joins of the same class.
    stream: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", _as_int(self.count, "count"))
        object.__setattr__(
            self, "mean_interarrival_ms",
            _as_float(self.mean_interarrival_ms, "mean_interarrival_ms"),
        )
        object.__setattr__(self, "start_round", _as_float(self.start_round, "start_round"))

    def validate(self) -> None:
        if self.count < 0:
            raise ExperimentError(f"count must be non-negative, got {self.count}")
        if self.mean_interarrival_ms <= 0:
            raise ExperimentError(
                f"mean_interarrival_ms must be positive, got {self.mean_interarrival_ms}"
            )
        if self.start_round < 0:
            raise ExperimentError(f"start_round must be non-negative: {self.start_round}")

    def compile(self, ctx: CompileContext) -> Optional[object]:
        scenario = ctx.scenario
        rng = ctx.derive_rng(self, self.stream) if self.stream else None
        return PoissonJoinProcess(
            scenario,
            public=self.public,
            count=self.count,
            mean_interarrival_ms=self.mean_interarrival_ms,
            start_ms=self.start_round * scenario.round_ms,
            rng=rng,
        )


@register_event
@dataclass(frozen=True)
class JoinBurst(WorkloadEvent):
    """A flash crowd: many nodes join at one instant (or spread over a few rounds).

    ``count`` joins an absolute number of nodes; ``fraction`` joins that fraction of
    the population live at ``at_round`` (exactly one of the two must be positive).
    Each joiner is public with probability ``public_share``; arrival offsets and class
    draws come from the event's own seed-derived stream.
    """

    type: ClassVar[str] = "join_burst"

    at_round: float
    count: int = 0
    fraction: float = 0.0
    public_share: float = 0.2
    spread_rounds: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", _as_int(self.count, "count"))
        for name in ("at_round", "fraction", "public_share", "spread_rounds"):
            object.__setattr__(self, name, _as_float(getattr(self, name), name))

    def validate(self) -> None:
        if self.at_round < 0:
            raise ExperimentError(f"at_round must be non-negative: {self.at_round}")
        if self.count < 0:
            raise ExperimentError(f"count must be non-negative, got {self.count}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ExperimentError(f"fraction out of range: {self.fraction}")
        if (self.count > 0) == (self.fraction > 0.0):
            raise ExperimentError(
                "join_burst needs exactly one of count or fraction to be positive"
            )
        if not 0.0 <= self.public_share <= 1.0:
            raise ExperimentError(f"public_share out of range: {self.public_share}")
        if self.spread_rounds < 0:
            raise ExperimentError(
                f"spread_rounds must be non-negative: {self.spread_rounds}"
            )

    def compile(self, ctx: CompileContext) -> Optional[object]:
        scenario = ctx.scenario
        rng = ctx.derive_rng(self)

        def fire() -> None:
            joining = self.count or int(round(self.fraction * scenario.live_count()))
            spread_ms = self.spread_rounds * scenario.round_ms
            for _ in range(joining):
                public = rng.random() < self.public_share
                if spread_ms > 0:
                    scenario.sim.schedule(rng.random() * spread_ms, scenario.add_node, public)
                else:
                    scenario.add_node(public)

        return scenario.sim.schedule_at(
            max(self.at_round * scenario.round_ms, scenario.sim.now), fire
        )


# ---------------------------------------------------------------------- churn & ratio


@register_event
@dataclass(frozen=True)
class ChurnPhase(WorkloadEvent):
    """Steady-state churn over a window (Figure 5), with an optional linear onset ramp.

    Compiles to :class:`~repro.workload.churn.ChurnProcess`; a zero-fraction phase
    schedules nothing at all.
    """

    type: ClassVar[str] = "churn_phase"

    fraction_per_round: float
    start_round: float = 0.0
    stop_round: Optional[float] = None
    ramp_rounds: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fraction_per_round",
            _as_float(self.fraction_per_round, "fraction_per_round"),
        )
        object.__setattr__(self, "start_round", _as_float(self.start_round, "start_round"))
        object.__setattr__(self, "ramp_rounds", _as_float(self.ramp_rounds, "ramp_rounds"))
        if self.stop_round is not None:
            object.__setattr__(self, "stop_round", _as_float(self.stop_round, "stop_round"))

    def validate(self) -> None:
        if not 0.0 <= self.fraction_per_round <= 1.0:
            raise ExperimentError(
                f"fraction_per_round out of range: {self.fraction_per_round}"
            )
        if self.start_round < 0:
            raise ExperimentError(f"start_round must be non-negative: {self.start_round}")
        if self.stop_round is not None and self.stop_round <= self.start_round:
            raise ExperimentError(
                f"churn stop_round={self.stop_round} must be after "
                f"start_round={self.start_round}"
            )
        if self.ramp_rounds < 0:
            raise ExperimentError(f"ramp_rounds must be non-negative: {self.ramp_rounds}")

    def compile(self, ctx: CompileContext) -> Optional[object]:
        if self.fraction_per_round == 0.0:
            return None
        scenario = ctx.scenario
        return ChurnProcess(
            scenario,
            fraction_per_round=self.fraction_per_round,
            start_ms=self.start_round * scenario.round_ms,
            stop_ms=(
                None if self.stop_round is None
                else self.stop_round * scenario.round_ms
            ),
            ramp_rounds=self.ramp_rounds,
        )


@register_event
@dataclass(frozen=True)
class RatioGrowth(WorkloadEvent):
    """Public nodes added at a constant rate, raising ω (the Figure 2 dynamics;
    compiles to :class:`~repro.workload.ratio.RatioGrowthProcess`)."""

    type: ClassVar[str] = "ratio_growth"

    count: int
    start_round: float = 0.0
    interval_ms: float = 42.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", _as_int(self.count, "count"))
        object.__setattr__(self, "start_round", _as_float(self.start_round, "start_round"))
        object.__setattr__(self, "interval_ms", _as_float(self.interval_ms, "interval_ms"))

    def validate(self) -> None:
        if self.count < 0:
            raise ExperimentError(f"count must be non-negative, got {self.count}")
        if self.start_round < 0:
            raise ExperimentError(f"start_round must be non-negative: {self.start_round}")
        if self.interval_ms <= 0:
            raise ExperimentError(f"interval_ms must be positive, got {self.interval_ms}")

    def compile(self, ctx: CompileContext) -> Optional[object]:
        if self.count == 0:
            return None
        scenario = ctx.scenario
        return RatioGrowthProcess(
            scenario,
            start_ms=self.start_round * scenario.round_ms,
            interval_ms=self.interval_ms,
            count=self.count,
        )


# ---------------------------------------------------------------------- failures


@register_event
@dataclass(frozen=True)
class FailureSpike(WorkloadEvent):
    """Catastrophic failure: a fraction of all live nodes dies at a round boundary
    (Figure 7b). A *boundary* event — it fires between rounds, exactly where the
    imperative harness called :func:`~repro.workload.failure.catastrophic_failure`,
    and its outcome (survivors, biggest surviving cluster) is recorded on the
    installed timeline."""

    type: ClassVar[str] = "failure_spike"

    at_round: float
    fraction: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "at_round", _as_float(self.at_round, "at_round"))
        object.__setattr__(self, "fraction", _as_float(self.fraction, "fraction"))

    def validate(self) -> None:
        if self.at_round < 0:
            raise ExperimentError(f"at_round must be non-negative: {self.at_round}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ExperimentError(f"fraction out of range: {self.fraction}")

    @property
    def boundary_round(self) -> Optional[float]:
        return self.at_round

    def apply(self, scenario: BaseScenario) -> object:
        from repro.workload.failure import catastrophic_failure

        return catastrophic_failure(scenario, self.fraction)


# ---------------------------------------------------------------------- link dynamics


@register_event
@dataclass(frozen=True)
class LossBurst(WorkloadEvent):
    """A window of elevated uniform packet loss (a lossy backbone episode): the
    scenario's loss rate is raised to ``loss_rate`` at ``start_round`` and the rate it
    replaced is restored at ``stop_round``."""

    type: ClassVar[str] = "loss_burst"

    start_round: float
    stop_round: float
    loss_rate: float

    def __post_init__(self) -> None:
        for name in ("start_round", "stop_round", "loss_rate"):
            object.__setattr__(self, name, _as_float(getattr(self, name), name))

    def validate(self) -> None:
        if self.start_round < 0:
            raise ExperimentError(f"start_round must be non-negative: {self.start_round}")
        if self.stop_round <= self.start_round:
            raise ExperimentError(
                f"loss stop_round={self.stop_round} must be after "
                f"start_round={self.start_round}"
            )
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ExperimentError(f"loss_rate out of range: {self.loss_rate}")

    def compile(self, ctx: CompileContext) -> Optional[object]:
        scenario = ctx.scenario
        saved = {"rate": 0.0}

        def start() -> None:
            saved["rate"] = scenario.set_loss_rate(self.loss_rate)

        def stop() -> None:
            scenario.set_loss_rate(saved["rate"])

        now = scenario.sim.now
        round_ms = scenario.round_ms
        scenario.sim.schedule_at(max(self.start_round * round_ms, now), start)
        return scenario.sim.schedule_at(max(self.stop_round * round_ms, now), stop)


@register_event
@dataclass(frozen=True)
class Partition(WorkloadEvent):
    """A transient network split that heals: at ``start_round`` a seed-derived random
    ``fraction`` of the live nodes (by wire IP — a NAT'ed node moves with its
    gateway) is isolated from the rest; at ``stop_round`` the partition heals and
    traffic flows again. Measures how the overlay survives and re-merges."""

    type: ClassVar[str] = "partition"

    start_round: float
    stop_round: float
    fraction: float = 0.5

    def __post_init__(self) -> None:
        for name in ("start_round", "stop_round", "fraction"):
            object.__setattr__(self, name, _as_float(getattr(self, name), name))

    def validate(self) -> None:
        if self.start_round < 0:
            raise ExperimentError(f"start_round must be non-negative: {self.start_round}")
        if self.stop_round <= self.start_round:
            raise ExperimentError(
                f"partition stop_round={self.stop_round} must be after "
                f"start_round={self.start_round}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ExperimentError(f"fraction out of range: {self.fraction}")

    def compile(self, ctx: CompileContext) -> Optional[object]:
        scenario = ctx.scenario
        rng = ctx.derive_rng(self)

        def split() -> None:
            scenario.set_partition(
                [node_id for node_id in scenario.live_ids() if rng.random() < self.fraction]
            )

        def heal() -> None:
            scenario.set_partition(None)

        now = scenario.sim.now
        round_ms = scenario.round_ms
        scenario.sim.schedule_at(max(self.start_round * round_ms, now), split)
        return scenario.sim.schedule_at(max(self.stop_round * round_ms, now), heal)
