"""The declarative experiment-matrix layer.

The paper's evaluation is a grid — four protocols crossed with system sizes,
public/private ratios, churn and catastrophic-failure workloads — and this module makes
that grid a first-class object. A :class:`MatrixSpec` declares the axes (scenario kinds
× protocols × sizes × seeds); :meth:`MatrixSpec.cells` expands them into
:class:`CellSpec` values, each with a stable :attr:`~CellSpec.key`; and
:func:`run_cell` executes one cell with a seed derived deterministically from the root
seed and the cell key (:func:`repro.simulator.core.derive_seed`), so a cell's outcome
never depends on which worker process runs it or in what order. A spec naming
``figures`` expands the paper's figures instead: their cells are
:data:`repro.experiments.figures.FIGURES`, the one statement of the paper's sweep
points, crossed with the seed, engine and deployment axes.

Scenario kinds are *registered*, not hard-coded: the experiment modules
(:mod:`~repro.experiments.base` for every kind that shares the estimation runner,
:mod:`~repro.experiments.history_windows`, :mod:`~repro.experiments.randomness`,
:mod:`~repro.experiments.catastrophic_failure`, :mod:`~repro.experiments.nat_indegree`,
:mod:`~repro.experiments.scale`) call :func:`register_scenario` with a cell runner and
its default params. The sharded multiprocess executor lives
in :mod:`~repro.experiments.runner`; the ``repro matrix`` CLI, the paper's figures
(``repro run``, :mod:`~repro.experiments.figures`), the benchmarks and CI all drive
this same code path.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.constants import DEFAULT_PUBLIC_RATIO
from repro.errors import ConfigurationError, ExperimentError
from repro.membership.base import NatStrategy
from repro.membership.plugin import get_plugin, protocol_names
from repro.metrics.payload import MetricPayload
from repro.nat.mixture import NAT_MIXTURES
from repro.simulator.core import derive_seed

#: JSON-scalar parameter values a cell may carry (they must round-trip through repr()
#: identically in every process, which rules out floats computed at run time — params
#: should use literal constants).
ParamValue = Union[int, float, str, bool]
Params = Tuple[Tuple[str, ParamValue], ...]

#: Label used as the first component of every cell-seed derivation.
_CELL_SEED_LABEL = "matrix-cell"

#: Axis defaults. Cells at the default value omit the field from their key, so every
#: pre-axis cell key (and therefore every derived seed and archived aggregate) is
#: unchanged — the axes are additive.
#: ``"none"`` = every gateway runs the restricted-cone profile; any other value names
#: a registered :class:`~repro.nat.mixture.NatMixture`.
DEFAULT_NAT_MIXTURE = "none"
DEFAULT_UPNP_FRACTION = 0.0
#: ``"none"`` = no extra workload dynamics; any other value names a registered
#: :class:`~repro.workload.timeline.Timeline` whose events are appended to the cell's
#: own dynamics (the kind's params still build the base timeline).
DEFAULT_TIMELINE = "none"
#: ``"object"`` = the per-node component simulation; ``"columnar"`` = the flat-array
#: batched engine (:mod:`repro.columnar`) for 10⁵–10⁶-node cells.
DEFAULT_ENGINE = "object"


def timeline_digest(name: str) -> str:
    """The content digest of the registered timeline ``name`` (what cell keys embed)."""
    from repro.workload.timeline import get_timeline

    try:
        return get_timeline(name).digest
    except ConfigurationError as error:
        raise ExperimentError(str(error)) from None


# --------------------------------------------------------------------- cell & matrix


@dataclass(frozen=True)
class CellSpec:
    """One cell of the experiment matrix: a single simulated run.

    Cells are frozen (hashable, picklable) so they can be shipped to worker processes
    and used as dictionary keys. ``params`` is a sorted tuple of ``(name, value)``
    pairs — the scenario kind's variant knobs (churn fraction, failure fraction,
    public ratio, ...).
    """

    scenario: str
    protocol: str
    size: int
    seed_index: int
    rounds: int
    public_ratio: float = 0.2
    nat_mixture: str = DEFAULT_NAT_MIXTURE
    upnp_fraction: float = DEFAULT_UPNP_FRACTION
    timeline: str = DEFAULT_TIMELINE
    engine: str = DEFAULT_ENGINE
    params: Params = ()

    @property
    def key(self) -> str:
        """Stable identifier: a pure function of the cell's content.

        The deployment axes (``nat_mixture``, ``upnp_fraction``) and the
        ``timeline`` axis appear only when they differ from the defaults, so cell
        keys — and the seeds derived from them — from before those axes existed
        are unchanged. A non-default timeline is keyed as ``name@digest``: the
        digest hashes the timeline's canonical JSON, so editing a preset's
        *content* re-seeds its cells even though the name stays put.
        """
        parts = [
            f"scenario={self.scenario}",
            f"protocol={self.protocol}",
            f"size={self.size}",
            f"seed={self.seed_index}",
            f"rounds={self.rounds}",
            f"public_ratio={self.public_ratio:g}",
            *self.axis_parts(),
        ]
        parts.extend(f"{name}={value}" for name, value in self.params)
        return ";".join(parts)

    def axis_parts(self) -> List[str]:
        """The key parts of the deployment, timeline and engine axes, in key order:
        only the axes off their defaults (cell keys and aggregate group names share
        this spelling)."""
        parts = []
        if self.nat_mixture != DEFAULT_NAT_MIXTURE:
            parts.append(f"nat_mixture={self.nat_mixture}")
        if self.upnp_fraction != DEFAULT_UPNP_FRACTION:
            parts.append(f"upnp_fraction={self.upnp_fraction:g}")
        if self.timeline != DEFAULT_TIMELINE:
            parts.append(f"timeline={self.timeline}@{timeline_digest(self.timeline)}")
        if self.engine != DEFAULT_ENGINE:
            parts.append(f"engine={self.engine}")
        return parts

    def param(self, name: str, default: ParamValue = None) -> ParamValue:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ExperimentError(
                f"unknown scenario kind {self.scenario!r}; registered: {scenario_names()}"
            )
        if self.protocol not in protocol_names():
            raise ExperimentError(
                f"unknown protocol {self.protocol!r}; expected one of {protocol_names()}"
            )
        if self.nat_mixture != DEFAULT_NAT_MIXTURE and self.nat_mixture not in NAT_MIXTURES:
            raise ExperimentError(
                f"unknown nat_mixture {self.nat_mixture!r}; expected "
                f"{DEFAULT_NAT_MIXTURE!r} or one of {sorted(NAT_MIXTURES)}"
            )
        if not 0.0 <= self.upnp_fraction <= 1.0:
            raise ExperimentError(f"upnp_fraction out of range: {self.upnp_fraction}")
        if self.timeline != DEFAULT_TIMELINE:
            timeline_digest(self.timeline)  # raises on unknown names
        from repro.workload.scenario import ENGINES

        if self.engine not in ENGINES:
            raise ExperimentError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.engine != "object" and SCENARIOS[self.scenario].object_only:
            raise ExperimentError(f"scenario kind {self.scenario!r} runs only on "
                                  f"engine='object', not engine={self.engine!r}")
        if self.engine == "columnar":
            from repro.columnar.backend import require_numpy

            require_numpy()  # fail here, once, not in every forked worker
        if self.size <= 0:
            raise ExperimentError("cell size must be positive")
        if self.rounds <= 0:
            raise ExperimentError("cell rounds must be positive")
        if not 0.0 < self.public_ratio <= 1.0:
            raise ExperimentError(f"public_ratio out of range: {self.public_ratio}")
        if self.params:
            # Dynamics that start at or after the last round would measure a static
            # system under a dynamic label.
            params = dict(self.params)
            for amount, start in (("churn_fraction", "churn_start_round"),
                                  ("ratio_growth_count", "ratio_growth_start_round")):
                if params.get(amount, 0) > 0 and params.get(start, 0) >= self.rounds:
                    raise ExperimentError(
                        f"{start}={params[start]} is beyond the cell's "
                        f"rounds={self.rounds}; raise the rounds or start it sooner"
                    )


def derive_cell_seed(root_seed: int, cell_key: str) -> int:
    """hash(root seed, cell key) via the simulator's rule."""
    return derive_seed(root_seed, _CELL_SEED_LABEL, cell_key)


def _trunk_key(cell: CellSpec) -> str:
    """``cell``'s key without its kind's ``branch_param``: what the cells of one
    warmed prefix share (for every other kind, the cell key itself)."""
    branch = getattr(SCENARIOS.get(cell.scenario), "branch_param", None)
    if branch is not None:
        params = tuple(param for param in cell.params if param[0] != branch)
        cell = dataclasses.replace(cell, params=params)
    return cell.key


def cell_seed(root_seed: int, cell: CellSpec) -> int:
    """The seed ``cell`` runs with: :func:`derive_cell_seed` over its key without its
    kind's ``branch_param``. Cells of a branching kind that differ only in that param
    therefore run one seed and share one warmed prefix; for every other kind this is
    ``derive_cell_seed(root_seed, cell.key)``."""
    return derive_cell_seed(root_seed, _trunk_key(cell))


#: The deployment, timeline and engine axes in expansion order:
#: (``CellSpec`` field, ``MatrixSpec`` field, default).
_AXES = (
    ("nat_mixture", "nat_mixtures", DEFAULT_NAT_MIXTURE),
    ("upnp_fraction", "upnp_fractions", DEFAULT_UPNP_FRACTION),
    ("timeline", "timelines", DEFAULT_TIMELINE),
    ("engine", "engines", DEFAULT_ENGINE),
)


@dataclass
class MatrixSpec:
    """A declarative experiment grid: scenario kinds × protocols × sizes × seeds.

    ``seeds`` is a *count* of seed indices (0..seeds-1); each cell's actual simulator
    seed is derived from ``root_seed`` and the cell key, so changing any axis value
    changes only the affected cells' seeds, never the others'.

    ``figures`` names :data:`repro.experiments.figures.FIGURES` entries, whose cells
    at each of ``sizes`` replace ``scenarios`` × ``protocols`` × ``public_ratio``
    (left at their defaults); the other axes cross them, but an axis a figure's cell
    sets off its default keeps the cell's value (``scale`` stays columnar).

    ``nat_mixtures`` and ``upnp_fractions`` are first-class deployment axes: the
    gateway population (registered :data:`repro.nat.mixture.NAT_MIXTURES` names —
    ``"paper"`` is the paper's measured NAT-type distribution; ``"none"`` gives every
    gateway the restricted-cone profile) and the fraction of gateways whose NAT
    supports UPnP port mapping. Their defaults reproduce the pre-axis grids exactly,
    cell keys included.

    ``latency`` names the object engine's latency model, one of
    :data:`repro.workload.scenario.LATENCIES`.

    ``timelines`` is the workload-dynamics axis: each value names a registered
    :class:`~repro.workload.timeline.Timeline` (``repro matrix --list`` shows the
    presets: ``paper-churn``, ``paper-failure``, ``flash-crowd``, ``diurnal``,
    ``partition-heal``) whose events are installed on top of the scenario kind's own
    dynamics. ``"none"`` (the default) adds nothing and keeps every legacy cell key,
    derived seed and aggregate byte intact.

    ``engines`` is the execution-backend axis: ``"object"`` (default — per-node
    component simulation) or ``"columnar"`` (flat-array batched engine for
    10⁵–10⁶-node cells; Croupier, Cyclon, Gozar and Nylon). The default is omitted from
    cell keys, so adding the axis never re-seeds a legacy cell.
    """

    scenarios: Sequence[str] = ("static",)
    protocols: Sequence[str] = ("croupier",)
    sizes: Sequence[int] = (100,)
    seeds: int = 1
    rounds: int = 30
    public_ratio: float = DEFAULT_PUBLIC_RATIO
    root_seed: int = 42
    latency: str = "king"
    figures: Sequence[str] = ()
    nat_mixtures: Sequence[str] = (DEFAULT_NAT_MIXTURE,)
    upnp_fractions: Sequence[float] = (DEFAULT_UPNP_FRACTION,)
    timelines: Sequence[str] = (DEFAULT_TIMELINE,)
    engines: Sequence[str] = (DEFAULT_ENGINE,)

    def validate(self) -> List["CellSpec"]:
        """Validate the axes and every expanded cell; returns the cells so callers
        (the runner, the CLI) don't have to expand the grid a second time."""
        for field in ("scenarios", "protocols", "sizes") + tuple(a[1] for a in _AXES):
            if not getattr(self, field):
                raise ExperimentError(f"matrix needs at least one value of {field}")
        if self.seeds <= 0:
            raise ExperimentError("seeds must be positive")
        if self.rounds <= 0:
            raise ExperimentError("rounds must be positive")
        from repro.workload.scenario import LATENCIES

        if self.latency not in LATENCIES:
            raise ExperimentError(
                f"unknown latency model {self.latency!r}; expected one of {LATENCIES}"
            )
        if self.figures:
            from repro.experiments.figures import FIGURES

            for name in self.figures:
                if name not in FIGURES:
                    raise ExperimentError(
                        f"unknown figure {name!r}; expected one of {sorted(FIGURES)}")
            for flag, moved in (("--scenarios", list(self.scenarios) != ["static"]),
                                ("--protocols", list(self.protocols) != ["croupier"]),
                                ("--public-ratio", self.public_ratio != DEFAULT_PUBLIC_RATIO)):
                if moved:
                    raise ExperimentError(f"{flag} cannot be combined with --figures: "
                                          "a figure's cells set it themselves")
        for name in self.scenarios:
            if name not in SCENARIOS:
                raise ExperimentError(
                    f"unknown scenario kind {name!r}; registered: {scenario_names()}"
                )
        cells = self.cells()
        for cell in cells:
            cell.validate()
        return cells

    def cells(self) -> List[CellSpec]:
        """Expand the axes into cells, in a stable, documented order.

        Order is scenario → protocol → NAT mixture → UPnP fraction → timeline →
        engine → size → seed, exactly as declared; with ``figures`` it is figure →
        size → the figure's cells in figure order → NAT mixture → … → engine →
        seed. The runner preserves this order in its results regardless of which
        worker finishes first.
        """
        axes = [getattr(self, field) for _, field, _ in _AXES]
        if self.figures:
            from repro.experiments.figures import FIGURES

            bases = []
            for name in self.figures:
                for size in self.sizes:
                    for cell in FIGURES[name].cells(size, self.rounds):
                        # An axis the cell already sets keeps the cell's value.
                        own = [values if getattr(cell, field) == default
                               else (getattr(cell, field),)
                               for (field, _, default), values in zip(_AXES, axes)]
                        bases.append((cell.scenario, cell.protocol, cell.rounds,
                                      cell.public_ratio, cell.params, own + [(cell.size,)]))
        else:
            axes.append(self.sizes)
            bases = [(name, protocol, self.rounds, self.public_ratio,
                      SCENARIOS[name].default_params, axes)
                     for name in self.scenarios for protocol in self.protocols]
        cells: List[CellSpec] = []
        for scenario, protocol, rounds, public_ratio, params, base_axes in bases:
            for (nat_mixture, upnp_fraction, timeline, engine, size,
                 seed_index) in itertools.product(*base_axes, range(self.seeds)):
                cells.append(CellSpec(
                    scenario=scenario,
                    protocol=protocol,
                    size=size,
                    seed_index=seed_index,
                    rounds=rounds,
                    public_ratio=public_ratio,
                    nat_mixture=nat_mixture,
                    upnp_fraction=float(upnp_fraction),
                    timeline=timeline,
                    engine=engine,
                    params=params,
                ))
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            raise ExperimentError("matrix expansion produced duplicate cell keys")
        return cells

    def _moved_axes(self) -> List[Tuple[str, list]]:
        """The deployment, timeline and engine axes off their defaults."""
        return [(field, list(getattr(self, field))) for _, field, default in _AXES
                if list(getattr(self, field)) != [default]]

    def spec_json_dict(self) -> Dict[str, object]:
        """The spec's canonical JSON form — the aggregate's ``spec`` section and the
        basis of journal spec digests. Axes left at their defaults are omitted, so
        pre-axis specs serialise exactly as they always have; a figure spec names its
        figures in place of the fields their cells set."""
        section: Dict[str, object] = {
            "scenarios": list(self.scenarios),
            "protocols": list(self.protocols),
            "sizes": list(self.sizes),
            "seeds": self.seeds,
            "rounds": self.rounds,
            "public_ratio": self.public_ratio,
            "root_seed": self.root_seed,
            "latency": self.latency,
            **dict(self._moved_axes()),
        }
        if self.figures:
            for field in ("scenarios", "protocols", "public_ratio"):
                del section[field]
            section["figures"] = list(self.figures)
        return section

    def describe(self) -> str:
        grid = (f"figures={list(self.figures)}" if self.figures else
                f"scenarios={list(self.scenarios)} × protocols={list(self.protocols)}")
        return (f"{len(self.cells())} cells: {grid} × sizes={list(self.sizes)} × "
                f"seeds={self.seeds} (rounds={self.rounds})"
                + "".join(f" × {field}={values}" for field, values in self._moved_axes()))


# --------------------------------------------------------------------- registry


@dataclass(frozen=True)
class ScenarioKind:
    """A registered workload shape that can populate matrix cells.

    ``runner`` receives a :class:`CellContext` and returns a
    :class:`~repro.metrics.payload.MetricPayload`. ``default_params`` are the params
    of the kind's cells in a ``scenarios`` grid; the paper's sweep points are the
    figures' cells (:data:`repro.experiments.figures.FIGURES`).

    ``timeout_s`` is the kind's default per-cell wall-clock budget under the matrix
    runner's watchdog (``None`` = the runner-wide default; ``repro matrix
    --cell-timeout`` overrides both). A cell past its budget is classified as a
    ``timeout`` fault, its worker killed, and the cell retried on a fresh one.

    ``object_only`` kinds read per-node state the columnar engine does not keep:
    :meth:`CellSpec.validate` refuses them on it, before any cell runs.

    ``branch_param`` names the one param a kind applies only after its warm-up
    (``failure_fraction`` for ``failure``): :func:`cell_seed` leaves it out, so
    cells that differ only in it share a seed, and
    :meth:`CellContext.populated_scenario` (``warm=True``) hands each of them a
    clone of one warmed prefix.
    """

    name: str
    runner: Callable[["CellContext"], "MetricPayload"]
    description: str = ""
    default_params: Tuple[Tuple[str, ParamValue], ...] = ()
    timeout_s: Optional[float] = None
    branch_param: Optional[str] = None
    object_only: bool = False


#: Global scenario-kind registry, filled by the experiment modules at import time.
SCENARIOS: Dict[str, ScenarioKind] = {}


def register_scenario(
    name: str,
    runner: Callable[["CellContext"], "MetricPayload"],
    description: str = "",
    default_params: Optional[Mapping[str, ParamValue]] = None,
    replace: bool = False,
    timeout_s: Optional[float] = None,
    branch_param: Optional[str] = None,
    object_only: bool = False,
) -> ScenarioKind:
    """Register a scenario kind under ``name`` (used by experiment modules and tests).

    Note for parallel runs: the pool runner forks where the platform allows, so kinds
    registered at run time (tests, notebooks) are visible in workers. Under a spawn
    start method (e.g. Windows) only kinds registered at import time of
    :mod:`repro.experiments` exist in workers — put custom kinds in an importable
    module there, or run with ``workers=1``.
    """
    if name in SCENARIOS and not replace:
        raise ExperimentError(f"scenario kind {name!r} already registered")
    kind = ScenarioKind(
        name=name,
        runner=runner,
        description=description,
        default_params=_freeze_params(default_params or {}),
        timeout_s=timeout_s,
        branch_param=branch_param,
        object_only=object_only,
    )
    SCENARIOS[name] = kind
    return kind


def unregister_scenario(name: str) -> None:
    SCENARIOS.pop(name, None)


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def _freeze_params(params: Mapping[str, ParamValue]) -> Params:
    return tuple(sorted(params.items()))


# --------------------------------------------------------------------- execution


def public_only_baseline(protocol: str) -> bool:
    """Whether the paper runs ``protocol`` over public nodes only: a NAT-oblivious
    protocol (Cyclon, the true-randomness baseline) cannot reach private nodes."""
    return get_plugin(protocol).nat_strategy is NatStrategy.NONE


#: The one warmed prefix this process keeps: ``(slot key, pristine scenario)``.
#: :func:`~repro.experiments.runner.run_matrix` dispatches a prefix's sibling cells
#: back to back, so each process meets the prefixes in order and one slot serves them.
_WARM_PREFIX: Optional[Tuple[Tuple[str, int, str], object]] = None


@dataclass
class CellContext:
    """Everything a scenario-kind runner needs to execute one cell."""

    cell: CellSpec
    seed: int
    latency: str = "king"

    @property
    def n_public(self) -> int:
        return max(1, int(round(self.cell.size * self.cell.public_ratio)))

    @property
    def n_private(self) -> int:
        return max(0, self.cell.size - self.n_public)

    @property
    def timeline(self):
        """The cell's axis :class:`~repro.workload.timeline.Timeline` (``None`` for
        the default ``"none"`` — the value every pre-timeline cell carries).

        Presets that declare an authored horizon are compressed proportionally
        when this cell measures fewer rounds than the preset was written for
        (:meth:`~repro.workload.timeline.TimelinePreset.timeline_for_horizon`);
        the cell key's digest still hashes the authored timeline, so scaling
        never changes the derived seed.
        """
        if self.cell.timeline == DEFAULT_TIMELINE:
            return None
        from repro.workload.timeline import TIMELINES, get_timeline

        preset = TIMELINES.get(self.cell.timeline)
        if preset is None:
            return get_timeline(self.cell.timeline)  # raises the canonical error
        return preset.timeline_for_horizon(float(self.cell.rounds))

    def install_timeline(self, scenario, base=None):
        """Install the cell's dynamics onto ``scenario``: the scenario kind's own
        ``base`` timeline (its params, compiled — may be ``None``) extended with the
        axis timeline's events. Returns the
        :class:`~repro.workload.timeline.InstalledTimeline` whose
        ``fire_boundary(round)`` the measurement loop must call between rounds.
        """
        from repro.workload.timeline import Timeline

        timeline = base if base is not None else Timeline()
        axis = self.timeline
        if axis is not None:
            timeline = timeline.extended(*axis.events)
        # The cell's measured rounds are the horizon: events starting past it would
        # silently never fire, so install() warns about them.
        return timeline.install(scenario, horizon_rounds=self.cell.rounds)

    def scenario_config(self, pss_config=None, nat_mixture: Optional[str] = None):
        """The :class:`~repro.workload.ScenarioConfig` this cell prescribes: protocol,
        derived seed, latency, and the deployment axes (NAT mixture, UPnP
        fraction). ``nat_mixture`` overrides the cell's mixture axis (the
        ``nat_indegree`` kind forces the paper mixture on mixture-less cells)."""
        from repro.workload.scenario import ScenarioConfig

        cell = self.cell
        mixture_name = nat_mixture if nat_mixture is not None else cell.nat_mixture
        mixture = (
            NAT_MIXTURES[mixture_name]
            if mixture_name != DEFAULT_NAT_MIXTURE
            else None
        )
        return ScenarioConfig(
            protocol=cell.protocol,
            seed=self.seed,
            latency=self.latency,
            nat_mixture=mixture,
            upnp_fraction=cell.upnp_fraction,
            pss_config=pss_config,
            engine=cell.engine,
        )

    def populated_scenario(
        self, n_public=None, n_private=None, pss_config=None,
        nat_mixture: Optional[str] = None, warm: bool = False,
    ):
        """Build this cell's populated scenario.

        ``warm=True`` returns a branching kind's shared prefix instead: the populated
        scenario with the cell's axis timeline installed and its ``rounds`` rounds
        run. The process keeps the last one built, keyed by the cell key without its
        ``branch_param``, the seed and the latency (the key names every axis, not the
        overrides: a warm caller passes none), and hands each sibling cell a
        ``clone()`` of it; a clone continues exactly like a fresh build, so worker
        counts never change results.
        """
        from repro.workload.scenario import create_scenario

        global _WARM_PREFIX
        if warm:
            key = (_trunk_key(self.cell), self.seed, self.latency)
            if _WARM_PREFIX is not None and _WARM_PREFIX[0] == key:
                return _WARM_PREFIX[1].clone()
            _WARM_PREFIX = None  # the previous prefix is not held through this build
        scenario = create_scenario(
            self.scenario_config(pss_config=pss_config, nat_mixture=nat_mixture)
        )
        scenario.populate(
            n_public=self.n_public if n_public is None else n_public,
            n_private=self.n_private if n_private is None else n_private,
        )
        if warm:
            self.install_timeline(scenario).advance_rounds(self.cell.rounds)
            _WARM_PREFIX = (key, scenario.clone())
        return scenario


def run_cell(cell: CellSpec, root_seed: int, latency: str = "king") -> MetricPayload:
    """Execute one cell and return its :class:`~repro.metrics.payload.MetricPayload`
    (raises on unknown kinds or runner errors)."""
    cell.validate()
    kind = SCENARIOS[cell.scenario]
    context = CellContext(cell=cell, seed=cell_seed(root_seed, cell), latency=latency)
    measured = kind.runner(context)
    measured.scalars = dict(sorted(measured.scalars.items()))
    return measured


# --------------------------------------------------------------------- measurement


def measure_cell(
    scenario,
    error_series=None,
    overhead_window=None,
    probes=None,
    path_length_sources: int = 30,
) -> MetricPayload:
    """The standard per-cell measurement, run through the pluggable probe set.

    Covers what the paper's figures plot: ω̂ estimation error (mean/max tails plus
    series percentiles — only for protocols whose plugin
    ``estimates_ratio``), the in-degree
    distribution (as summary scalars *and* as the ``in_degree`` histogram), graph
    randomness (Figure 6), partition connectivity (Figure 7b) and per-class traffic
    overhead when the caller opened a measurement window (Figure 7a). All values are
    pure functions of the cell seed, so aggregates are byte-identical across worker
    counts.

    ``probes`` replaces the default set (:func:`repro.metrics.probes.default_probes`);
    probes that do not support the protocol are skipped.
    """
    from repro.metrics.probes import ProbeContext, run_probes

    context = ProbeContext(
        error_series=error_series,
        overhead_window=overhead_window,
        path_length_sources=path_length_sources,
    )
    return run_probes(scenario, context=context, probes=probes)
