"""The declarative experiment-matrix layer.

The paper's evaluation is a grid — four protocols crossed with system sizes,
public/private ratios, churn and catastrophic-failure workloads — and this module makes
that grid a first-class object. A :class:`MatrixSpec` declares the axes (scenario kinds
× protocols × sizes × seeds); :meth:`MatrixSpec.cells` expands them into
:class:`CellSpec` values, each with a stable :attr:`~CellSpec.key`; and
:func:`run_cell` executes one cell with a seed derived deterministically from the root
seed and the cell key (:func:`repro.simulator.core.derive_seed`), so a cell's outcome
never depends on which worker process runs it or in what order.

Scenario kinds are *registered*, not hard-coded: the experiment modules
(:mod:`~repro.experiments.base` for every kind that shares the estimation runner,
:mod:`~repro.experiments.history_windows`, :mod:`~repro.experiments.randomness`,
:mod:`~repro.experiments.catastrophic_failure`, :mod:`~repro.experiments.nat_indegree`,
:mod:`~repro.experiments.scale`) call :func:`register_scenario` with a cell runner and
the paper's sweep points as default variants. The sharded multiprocess executor lives
in :mod:`~repro.experiments.runner`; the ``repro matrix`` CLI, the paper's figures
(``repro run``, :mod:`~repro.experiments.figures`), the benchmarks and CI all drive
this same code path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, ExperimentError
from repro.membership.base import NatStrategy
from repro.membership.plugin import get_plugin, protocol_names
from repro.metrics.payload import MetricPayload
from repro.nat.mixture import NAT_MIXTURES
from repro.nat.types import NAMED_PROFILES, NatProfile
from repro.simulator.core import derive_seed

#: JSON-scalar parameter values a cell may carry (they must round-trip through repr()
#: identically in every process, which rules out floats computed at run time — variants
#: should use literal constants).
ParamValue = Union[int, float, str, bool]
Params = Tuple[Tuple[str, ParamValue], ...]

#: Label used as the first component of every cell-seed derivation.
_CELL_SEED_LABEL = "matrix-cell"

#: First-class NAT-profile axis values -> profile factories (the canonical vocabulary
#: lives in :data:`repro.nat.types.NAMED_PROFILES`; this alias is the axis view of it).
NAT_PROFILES: Dict[str, Callable[[], NatProfile]] = dict(NAMED_PROFILES)

#: Axis defaults. Cells at the default value omit the field from their key, so every
#: pre-axis cell key (and therefore every derived seed and archived aggregate) is
#: unchanged — the axes are additive.
DEFAULT_NAT_PROFILE = "restricted_cone"
DEFAULT_LOSS_RATE = 0.0
#: ``"none"`` = homogeneous gateways (the ``nat_profile`` axis applies); any other
#: value names a registered :class:`~repro.nat.mixture.NatMixture`.
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

#: The paper-setup sweep values for the deployment axes: Section VII runs
#: restricted-cone gateways as the base case and calls out the cone spectrum through
#: symmetric NATs; the loss sweep covers "no loss" to the 5 % uniform loss stress
#: point; the UPnP sweep spans "no gateway helps" to half of them mapping ports.
PAPER_NAT_PROFILES = ("full_cone", "restricted_cone", "port_restricted_cone", "symmetric")
PAPER_LOSS_RATES = (0.0, 0.01, 0.05)
PAPER_UPNP_FRACTIONS = (0.0, 0.2, 0.5)


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
    nat_profile: str = DEFAULT_NAT_PROFILE
    loss_rate: float = DEFAULT_LOSS_RATE
    nat_mixture: str = DEFAULT_NAT_MIXTURE
    upnp_fraction: float = DEFAULT_UPNP_FRACTION
    timeline: str = DEFAULT_TIMELINE
    engine: str = DEFAULT_ENGINE
    params: Params = ()

    @property
    def key(self) -> str:
        """Stable identifier: a pure function of the cell's content.

        The deployment axes (``nat_profile``, ``loss_rate``, ``nat_mixture``,
        ``upnp_fraction``) and the ``timeline`` axis appear only when they differ
        from the defaults, so cell keys — and the seeds derived from them — from
        before those axes existed are unchanged. A non-default timeline is keyed as
        ``name@digest``: the digest hashes the timeline's canonical JSON, so editing
        a preset's *content* re-seeds its cells even though the name stays put.
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
        if self.nat_profile != DEFAULT_NAT_PROFILE:
            parts.append(f"nat_profile={self.nat_profile}")
        if self.loss_rate != DEFAULT_LOSS_RATE:
            parts.append(f"loss_rate={self.loss_rate:g}")
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
        if self.nat_profile not in NAT_PROFILES:
            raise ExperimentError(
                f"unknown nat_profile {self.nat_profile!r}; expected one of "
                f"{sorted(NAT_PROFILES)}"
            )
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ExperimentError(f"loss_rate out of range: {self.loss_rate}")
        if self.nat_mixture != DEFAULT_NAT_MIXTURE:
            if self.nat_mixture not in NAT_MIXTURES:
                raise ExperimentError(
                    f"unknown nat_mixture {self.nat_mixture!r}; expected "
                    f"{DEFAULT_NAT_MIXTURE!r} or one of {sorted(NAT_MIXTURES)}"
                )
            if self.nat_profile != DEFAULT_NAT_PROFILE:
                raise ExperimentError(
                    f"cell sets both nat_mixture={self.nat_mixture!r} and "
                    f"nat_profile={self.nat_profile!r}; a mixture already decides "
                    "every gateway's profile"
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
        if self.engine == "columnar":
            from repro.columnar.backend import require_numpy

            require_numpy()  # fail here, once, not in every forked worker
        if self.size <= 0:
            raise ExperimentError("cell size must be positive")
        if self.rounds <= 0:
            raise ExperimentError("cell rounds must be positive")
        if not 0.0 < self.public_ratio <= 1.0:
            raise ExperimentError(f"public_ratio out of range: {self.public_ratio}")


def derive_cell_seed(root_seed: int, cell_key: str) -> int:
    """hash(root seed, cell key) via the simulator's rule."""
    return derive_seed(root_seed, _CELL_SEED_LABEL, cell_key)


def cell_seed(root_seed: int, cell: CellSpec) -> int:
    """The seed ``cell`` runs with: :func:`derive_cell_seed` over its key without its
    kind's ``branch_param``. Cells of a branching kind that differ only in that param
    therefore run one seed and share one warmed prefix; for every other kind this is
    ``derive_cell_seed(root_seed, cell.key)``."""
    branch = getattr(SCENARIOS.get(cell.scenario), "branch_param", None)
    if branch is not None:
        params = tuple(param for param in cell.params if param[0] != branch)
        cell = dataclasses.replace(cell, params=params)
    return derive_cell_seed(root_seed, cell.key)


@dataclass
class MatrixSpec:
    """A declarative experiment grid: scenario kinds × protocols × sizes × seeds.

    ``seeds`` is a *count* of seed indices (0..seeds-1); each cell's actual simulator
    seed is derived from ``root_seed`` and the cell key, so changing any axis value
    changes only the affected cells' seeds, never the others'.

    ``variants`` controls which of a scenario kind's registered parameter variants are
    expanded: ``"default"`` (the kind's single default), ``"paper"`` (the full sweep
    the paper plots, e.g. all churn levels) or ``"first"`` (the first paper variant).

    ``nat_profiles``, ``loss_rates``, ``nat_mixtures`` and ``upnp_fractions`` are
    first-class deployment axes: the NAT behaviour of private nodes' gateways (names
    from :data:`NAT_PROFILES`; :data:`PAPER_NAT_PROFILES` is the paper-setup sweep),
    the uniform packet-loss probability (:data:`PAPER_LOSS_RATES`), heterogeneous
    gateway populations (registered :data:`repro.nat.mixture.NAT_MIXTURES` names —
    ``"paper"`` is the paper's measured NAT-type distribution; ``"none"`` keeps the
    homogeneous ``nat_profiles`` behaviour) and the fraction of gateways whose NAT
    supports UPnP port mapping (:data:`PAPER_UPNP_FRACTIONS`). Their defaults
    reproduce the pre-axis grids exactly, cell keys included.

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
    public_ratio: float = 0.2
    root_seed: int = 42
    latency: str = "king"
    variants: str = "default"
    nat_profiles: Sequence[str] = (DEFAULT_NAT_PROFILE,)
    loss_rates: Sequence[float] = (DEFAULT_LOSS_RATE,)
    nat_mixtures: Sequence[str] = (DEFAULT_NAT_MIXTURE,)
    upnp_fractions: Sequence[float] = (DEFAULT_UPNP_FRACTION,)
    timelines: Sequence[str] = (DEFAULT_TIMELINE,)
    engines: Sequence[str] = (DEFAULT_ENGINE,)

    def validate(self) -> List["CellSpec"]:
        """Validate the axes and every expanded cell; returns the cells so callers
        (the runner, the CLI) don't have to expand the grid a second time."""
        if not self.scenarios:
            raise ExperimentError("matrix needs at least one scenario kind")
        if not self.protocols:
            raise ExperimentError("matrix needs at least one protocol")
        if not self.sizes:
            raise ExperimentError("matrix needs at least one system size")
        if not self.nat_profiles:
            raise ExperimentError("matrix needs at least one NAT profile")
        if not self.loss_rates:
            raise ExperimentError("matrix needs at least one loss rate")
        if not self.nat_mixtures:
            raise ExperimentError("matrix needs at least one NAT mixture (or 'none')")
        if not self.upnp_fractions:
            raise ExperimentError("matrix needs at least one UPnP fraction")
        if not self.timelines:
            raise ExperimentError("matrix needs at least one timeline (or 'none')")
        if not self.engines:
            raise ExperimentError("matrix needs at least one engine")
        if self.seeds <= 0:
            raise ExperimentError("seeds must be positive")
        if self.rounds <= 0:
            raise ExperimentError("rounds must be positive")
        if self.variants not in ("default", "paper", "first"):
            raise ExperimentError(f"unknown variants mode {self.variants!r}")
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

        Order is scenario → variant → protocol → NAT profile → NAT mixture → UPnP
        fraction → loss rate → timeline → engine → size → seed, exactly as
        declared; the runner preserves this order in its results regardless of
        which worker finishes first.
        """
        cells: List[CellSpec] = []
        for scenario_name in self.scenarios:
            kind = SCENARIOS[scenario_name]
            for params in kind.expand_variants(self.variants):
                # A variant's public_ratio is the cell's ratio, not an extra param —
                # folding it in keeps cell keys free of duplicate fields.
                variant = dict(params)
                ratio = float(variant.pop("public_ratio", self.public_ratio))
                for protocol in self.protocols:
                    for nat_profile in self.nat_profiles:
                        for nat_mixture in self.nat_mixtures:
                            for upnp_fraction in self.upnp_fractions:
                                for loss_rate in self.loss_rates:
                                    for timeline in self.timelines:
                                        for engine in self.engines:
                                            for size in self.sizes:
                                                for seed_index in range(self.seeds):
                                                    cells.append(
                                                        CellSpec(
                                                            scenario=scenario_name,
                                                            protocol=protocol,
                                                            size=size,
                                                            seed_index=seed_index,
                                                            rounds=self.rounds,
                                                            public_ratio=ratio,
                                                            nat_profile=nat_profile,
                                                            loss_rate=float(loss_rate),
                                                            nat_mixture=nat_mixture,
                                                            upnp_fraction=float(upnp_fraction),
                                                            timeline=timeline,
                                                            engine=engine,
                                                            params=_freeze_params(variant),
                                                        )
                                                    )
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            raise ExperimentError("matrix expansion produced duplicate cell keys")
        return cells

    def spec_json_dict(self) -> Dict[str, object]:
        """The spec's canonical JSON form — the aggregate's ``spec`` section and the
        basis of journal spec digests. Axes left at their defaults are omitted, so
        pre-axis specs serialise exactly as they always have."""
        section: Dict[str, object] = {
            "scenarios": list(self.scenarios),
            "protocols": list(self.protocols),
            "sizes": list(self.sizes),
            "seeds": self.seeds,
            "rounds": self.rounds,
            "public_ratio": self.public_ratio,
            "root_seed": self.root_seed,
            "latency": self.latency,
            "variants": self.variants,
            "nat_profiles": list(self.nat_profiles),
            "loss_rates": list(self.loss_rates),
        }
        if tuple(self.nat_mixtures) != (DEFAULT_NAT_MIXTURE,):
            section["nat_mixtures"] = list(self.nat_mixtures)
        if tuple(self.upnp_fractions) != (DEFAULT_UPNP_FRACTION,):
            section["upnp_fractions"] = list(self.upnp_fractions)
        if tuple(self.timelines) != (DEFAULT_TIMELINE,):
            section["timelines"] = list(self.timelines)
        if tuple(self.engines) != (DEFAULT_ENGINE,):
            section["engines"] = list(self.engines)
        return section

    def describe(self) -> str:
        cells = self.cells()
        description = (
            f"{len(cells)} cells: scenarios={list(self.scenarios)} × "
            f"protocols={list(self.protocols)} × sizes={list(self.sizes)} × "
            f"seeds={self.seeds} (variants={self.variants}, rounds={self.rounds})"
        )
        if tuple(self.nat_profiles) != (DEFAULT_NAT_PROFILE,):
            description += f" × nat_profiles={list(self.nat_profiles)}"
        if tuple(self.nat_mixtures) != (DEFAULT_NAT_MIXTURE,):
            description += f" × nat_mixtures={list(self.nat_mixtures)}"
        if tuple(self.upnp_fractions) != (DEFAULT_UPNP_FRACTION,):
            description += f" × upnp_fractions={list(self.upnp_fractions)}"
        if tuple(self.loss_rates) != (DEFAULT_LOSS_RATE,):
            description += f" × loss_rates={list(self.loss_rates)}"
        if tuple(self.timelines) != (DEFAULT_TIMELINE,):
            description += f" × timelines={list(self.timelines)}"
        if tuple(self.engines) != (DEFAULT_ENGINE,):
            description += f" × engines={list(self.engines)}"
        return description


# --------------------------------------------------------------------- registry


@dataclass(frozen=True)
class ScenarioKind:
    """A registered workload shape that can populate matrix cells.

    ``runner`` receives a :class:`CellContext` and returns a
    :class:`~repro.metrics.payload.MetricPayload` (plain ``{metric: number}`` dicts
    are still accepted and adapted). ``paper_variants`` are the sweep points of the
    figure the kind reproduces (each a params dict); ``default_params`` is the single
    variant used when the matrix doesn't ask for the full paper sweep.

    ``timeout_s`` is the kind's default per-cell wall-clock budget under the matrix
    runner's watchdog (``None`` = the runner-wide default; ``repro matrix
    --cell-timeout`` overrides both). A cell past its budget is classified as a
    ``timeout`` fault, its worker killed, and the cell retried on a fresh one.

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
    paper_variants: Tuple[Params, ...] = ()
    timeout_s: Optional[float] = None
    branch_param: Optional[str] = None

    def expand_variants(self, mode: str) -> List[Params]:
        if mode == "paper" and self.paper_variants:
            return list(self.paper_variants)
        if mode == "first" and self.paper_variants:
            return [self.paper_variants[0]]
        return [self.default_params]


#: Global scenario-kind registry, filled by the experiment modules at import time.
SCENARIOS: Dict[str, ScenarioKind] = {}


def register_scenario(
    name: str,
    runner: Callable[["CellContext"], Dict[str, float]],
    description: str = "",
    default_params: Optional[Mapping[str, ParamValue]] = None,
    paper_variants: Optional[Sequence[Mapping[str, ParamValue]]] = None,
    replace: bool = False,
    timeout_s: Optional[float] = None,
    branch_param: Optional[str] = None,
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
        paper_variants=tuple(_freeze_params(v) for v in (paper_variants or ())),
        timeout_s=timeout_s,
        branch_param=branch_param,
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


@dataclass
class CellContext:
    """Everything a scenario-kind runner needs to execute one cell.

    ``reuse`` is the worker-local :class:`~repro.experiments.runner.ScenarioReuse`
    cache the runner injects (``None`` when a cell runs standalone): cells within one
    group share their construction recipe except for the derived seed, and the
    context routes protocol-config prototypes and populated-scenario builds through
    that cache so the shared parts are resolved once per worker instead of once per
    cell.
    """

    cell: CellSpec
    seed: int
    latency: str = "king"
    reuse: Optional[object] = None

    @property
    def n_public(self) -> int:
        ratio = float(self.cell.param("public_ratio", self.cell.public_ratio))
        return max(1, int(round(self.cell.size * ratio)))

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
        derived seed, latency, and the deployment axes (NAT profile or mixture, UPnP
        fraction, loss rate). ``nat_mixture`` overrides the cell's mixture axis (the
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
            loss_rate=cell.loss_rate,
            nat_profile=NAT_PROFILES[cell.nat_profile](),
            nat_mixture=mixture,
            upnp_fraction=cell.upnp_fraction,
            pss_config=pss_config,
            engine=cell.engine,
        )

    def pss_config_for(self, key: Tuple, build: Callable[[], object]):
        """A validated protocol-config prototype, shared through the reuse cache.

        ``key`` must fully determine the prototype (protocol name plus every config
        parameter); configs are read-only by the protocol contract, so one prototype
        can safely serve every cell — and every node — that asks for the same key.
        """
        if self.reuse is None:
            return build()
        return self.reuse.pss_config((self.cell.protocol,) + key, build)

    def populated_scenario(
        self, n_public=None, n_private=None, pss_config=None,
        nat_mixture: Optional[str] = None, warm: bool = False,
    ):
        """Build (or clone from the worker cache) this cell's populated scenario.

        The build recipe — protocol, derived seed, latency, deployment axes,
        population split and config prototype — fully determines the populated
        scenario, so a cached pristine clone continues exactly like a fresh build
        and worker counts can never change results. The cell's timeline is *not*
        part of the recipe: timelines install onto the returned scenario afterwards,
        so cells that share a populated prefix and differ only in their timeline
        suffix share one cached snapshot.

        ``warm=True`` returns a branching kind's shared prefix instead: the populated
        scenario with the cell's axis timeline installed and its ``rounds`` rounds
        run. Its recipe adds the rounds and the timeline, and the cache snapshots it
        on the first request, because every sibling branch asks for the same one.
        """
        from repro.workload.scenario import create_scenario

        cell = self.cell
        if n_public is None:
            n_public = self.n_public
        if n_private is None:
            n_private = self.n_private

        def build():
            scenario = create_scenario(
                self.scenario_config(pss_config=pss_config, nat_mixture=nat_mixture)
            )
            scenario.populate(n_public=n_public, n_private=n_private)
            if warm:
                self.install_timeline(scenario).advance_rounds(cell.rounds)
            return scenario

        if self.reuse is None:
            return build()
        recipe = (
            cell.protocol,
            self.seed,
            self.latency,
            cell.loss_rate,
            cell.nat_profile,
            nat_mixture if nat_mixture is not None else cell.nat_mixture,
            cell.upnp_fraction,
            n_public,
            n_private,
            None if pss_config is None else (type(pss_config).__name__, repr(pss_config)),
        )
        if cell.engine != DEFAULT_ENGINE:
            # Appended conditionally so legacy recipes (and their cached snapshots)
            # keep their exact tuples.
            recipe = recipe + (cell.engine,)
        if warm:
            recipe = recipe + (cell.rounds, self.timeline)
        return self.reuse.populated_scenario(recipe, build, snapshot_first=warm)


def run_cell(
    cell: CellSpec,
    root_seed: int,
    latency: str = "king",
    reuse: Optional[object] = None,
) -> MetricPayload:
    """Execute one cell and return its :class:`~repro.metrics.payload.MetricPayload`
    (raises on unknown kinds or runner errors). ``reuse`` is the worker-local
    :class:`~repro.experiments.runner.ScenarioReuse` cache, when running under the
    matrix runner."""
    cell.validate()
    kind = SCENARIOS[cell.scenario]
    context = CellContext(
        cell=cell,
        seed=cell_seed(root_seed, cell),
        latency=latency,
        reuse=reuse,
    )
    measured = kind.runner(context)
    if not isinstance(measured, MetricPayload):
        measured = MetricPayload.from_scalars(dict(measured))
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
