"""Shared machinery for the estimation experiments (Figures 1–5 and 7a).

All of those figures measure the same two quantities — the average and the maximum
estimation error across nodes, sampled once per gossip round — under different
workloads. Workload dynamics are expressed as a declarative
:class:`~repro.workload.timeline.Timeline`: :func:`estimation_timeline` translates an
experiment's knobs (Poisson join ramps, churn, ratio growth) into typed workload
events.

The estimation-style scenario kinds of the experiment matrix
(:mod:`~repro.experiments.matrix`) — ``static``, ``join``, ``ratio``, ``churn``,
``overhead`` and ``pss``, registered at the bottom of this module, plus ``history`` —
all share
:func:`run_estimation_cell`, which compiles the cell's params — plus the cell's
``--timelines`` axis value — into one installed timeline and records an
:class:`~repro.metrics.estimation.EstimationErrorSeries` round by round.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import CroupierConfig
from repro.errors import ExperimentError
from repro.experiments.matrix import CellContext, measure_cell, register_scenario
from repro.membership.policies import SelectionPolicy
from repro.metrics.estimation import EstimationErrorSeries
from repro.metrics.payload import MetricPayload
from repro.metrics.probes import MetricProbe, PssProbe, default_probes
from repro.workload.events import ChurnPhase, PoissonJoin, RatioGrowth
from repro.workload.scenario import create_scenario
from repro.workload.timeline import Timeline

#: The public/private ratios of Figure 4.
PAPER_RATIOS = (0.05, 0.1, 0.2, 0.33, 0.5, 0.9)
#: The per-round churn fractions of Figure 5.
PAPER_CHURN_LEVELS = (0.001, 0.01, 0.025, 0.05)
#: Samples each live node draws in a ``pss`` cell.
SAMPLES_PER_NODE = 20


def estimation_timeline(
    n_public: int,
    n_private: int,
    public_interarrival_ms: Optional[float] = None,
    private_interarrival_ms: Optional[float] = None,
    churn_fraction: float = 0.0,
    churn_start_round: float = 0.0,
    ratio_growth_start_round: Optional[float] = None,
    ratio_growth_interval_ms: float = 42.0,
    ratio_growth_count: int = 0,
) -> Timeline:
    """The estimation experiments' dynamics as a declarative timeline.

    Event order mirrors the order the imperative harnesses constructed their
    processes in (public join, private join, churn, ratio growth), so installing
    the timeline schedules bit-identically to the pre-timeline code. Joins are only
    part of the timeline when an inter-arrival time is given — instant population
    stays a :meth:`~repro.workload.Scenario.populate` call, outside the dynamics.
    """
    events = []
    if public_interarrival_ms is not None or private_interarrival_ms is not None:
        events.append(PoissonJoin(
            public=True,
            count=n_public,
            mean_interarrival_ms=public_interarrival_ms or 1.0,
        ))
        if n_private > 0:
            events.append(PoissonJoin(
                public=False,
                count=n_private,
                mean_interarrival_ms=private_interarrival_ms or 1.0,
            ))
    if churn_fraction > 0.0:
        events.append(ChurnPhase(
            fraction_per_round=churn_fraction,
            start_round=float(churn_start_round),
        ))
    if ratio_growth_start_round is not None and ratio_growth_count > 0:
        events.append(RatioGrowth(
            count=ratio_growth_count,
            start_round=float(ratio_growth_start_round),
            interval_ms=ratio_growth_interval_ms,
        ))
    return Timeline(tuple(events))


# ---------------------------------------------------------------------- matrix cells


def run_estimation_cell(
    ctx: CellContext, probes: Optional[Sequence[MetricProbe]] = None
) -> MetricPayload:
    """Execute one estimation-style matrix cell and return its metric payload.

    Cell params understood (all optional):

    ``join_window_ms``
        If set, both node classes join over this window following Poisson processes
        (the Figure 1–5 transient) instead of being created instantly at t=0.
    ``churn_fraction`` / ``churn_start_round``
        Steady-state churn as in Figure 5.
    ``alpha`` / ``gamma``
        Croupier's history windows — the Figure 1/2 sweep (the ``history`` scenario
        kind drives these).
    ``croupier_gamma`` / ``max_estimates``
        Croupier history/piggyback overrides (the Figure 7a configuration and
        ablation A3; ``croupier_gamma`` is the pre-payload spelling of ``gamma``).
    ``selection``
        Croupier's partner-selection policy, ``"tail"`` or ``"random"`` (ablation A4).
    ``ratio_growth_start_round`` / ``ratio_growth_count`` / ``ratio_growth_interval_ms``
        The Figure 2 dynamic-ratio schedule: starting at the given round, add public
        nodes one every ``interval_ms``.

    Every cell measures ``probes`` — by default the standard probe set
    (:func:`~repro.experiments.matrix.measure_cell`) — plus per-class traffic load
    over the second half of the run. The
    Croupier-specific config params are ignored for protocols without a matching
    configuration, exactly like the per-protocol-gated probes.

    The params compile into a declarative :class:`~repro.workload.Timeline` (via
    :func:`cell_timeline`), extended with the events of the cell's ``--timelines``
    axis value; boundary events (failure spikes) fire between rounds of the
    measurement loop.
    """
    cell = ctx.cell
    pss_config = None
    if cell.protocol == "croupier":
        alpha = cell.param("alpha")
        gamma = cell.param("gamma", cell.param("croupier_gamma"))
        max_estimates = cell.param("max_estimates")
        selection = cell.param("selection")
        if any(value is not None for value in (alpha, gamma, max_estimates, selection)):
            pss_config = ctx.pss_config_for(
                ("croupier-config", alpha, gamma, max_estimates, selection),
                lambda: CroupierConfig(
                    local_history_alpha=int(alpha) if alpha is not None else 25,
                    neighbour_history_gamma=int(gamma) if gamma is not None else 50,
                    max_estimates_per_message=(
                        int(max_estimates) if max_estimates is not None else 10
                    ),
                    selection=SelectionPolicy(selection or "tail"),
                ),
            )

    n_public, n_private = ctx.n_public, ctx.n_private
    timeline = cell_timeline(ctx)
    if cell.param("join_window_ms"):
        # The join transient is part of the timeline; the scenario starts empty.
        scenario = create_scenario(ctx.scenario_config(pss_config=pss_config))
    else:
        scenario = ctx.populated_scenario(n_public, n_private, pss_config=pss_config)
    installed = ctx.install_timeline(scenario, base=timeline)

    series = EstimationErrorSeries(name=cell.key)
    overhead_window_start = None
    half = max(1, cell.rounds // 2)
    for round_index in range(1, cell.rounds + 1):
        installed.advance_rounds(1)
        series.record(scenario.now, scenario.true_ratio(), scenario.ratio_estimates())
        if round_index == half:
            overhead_window_start = scenario.traffic_snapshot()

    return measure_cell(
        scenario, series, overhead_window=overhead_window_start, probes=probes
    )


def run_pss_cell(ctx: CellContext) -> MetricPayload:
    """An estimation cell that also reads the peer-sampling service through
    :class:`~repro.metrics.probes.PssProbe`, which draws ``samples_per_node`` samples
    at every live node; it runs last because drawing consumes protocol RNG."""
    probe = PssProbe(int(ctx.cell.param("samples_per_node", SAMPLES_PER_NODE)))
    return run_estimation_cell(ctx, probes=default_probes() + (probe,))


def cell_timeline(ctx: CellContext) -> Timeline:
    """Compile an estimation-style cell's params into its base timeline.

    The translation the table in :func:`run_estimation_cell` documents:
    ``join_window_ms`` becomes two :class:`~repro.workload.PoissonJoin` events,
    ``churn_*`` a :class:`~repro.workload.ChurnPhase`, ``ratio_growth_*`` a
    :class:`~repro.workload.RatioGrowth` — in exactly the construction order of the
    pre-timeline imperative code, so legacy cells replay bit-for-bit.
    """
    cell = ctx.cell
    churn_fraction = float(cell.param("churn_fraction", 0.0))
    churn_start_round = int(cell.param("churn_start_round", 0))
    if churn_fraction > 0.0 and churn_start_round >= cell.rounds:
        # A churn onset past the simulated horizon would silently measure a static
        # system under a churn label; fail the cell instead.
        raise ExperimentError(
            f"churn_start_round={churn_start_round} is beyond the cell's "
            f"rounds={cell.rounds}; raise --rounds (the paper starts churn at t=61)"
        )
    join_window_ms = cell.param("join_window_ms")
    growth_count = int(cell.param("ratio_growth_count", 0))
    return estimation_timeline(
        n_public=ctx.n_public,
        n_private=ctx.n_private,
        public_interarrival_ms=(
            float(join_window_ms) / max(1, ctx.n_public) if join_window_ms else None
        ),
        private_interarrival_ms=(
            float(join_window_ms) / max(1, ctx.n_private) if join_window_ms else None
        ),
        churn_fraction=churn_fraction,
        churn_start_round=churn_start_round,
        ratio_growth_start_round=(
            float(cell.param("ratio_growth_start_round", 0)) if growth_count > 0 else None
        ),
        ratio_growth_interval_ms=float(cell.param("ratio_growth_interval_ms", 42.0)),
        ratio_growth_count=growth_count,
    )


register_scenario(
    "static",
    run_estimation_cell,
    description="instant population, constant public/private ratio (the baseline grid cell)",
)

# Figure 3 (systems of 50, 100, 500, 1000 and 5000 nodes, public ratio 0.2, α=25,
# γ=50): accuracy improves rapidly up to a few hundred nodes and only marginally
# beyond 1000.
register_scenario(
    "join",
    run_estimation_cell,
    description="both node classes join over a Poisson window, then the ratio stays constant "
    "(Figure 3's workload; sweep the matrix size axis for the full figure)",
    default_params={"join_window_ms": 5000.0},
)

# Figure 4: average error is essentially ratio-independent; only very small public
# fractions (5 %) show a noticeably larger maximum error, caused by the occasional
# private node that receives too few distinct estimates.
register_scenario(
    "ratio",
    run_estimation_cell,
    description="instant population at a swept public/private ratio (Figure 4)",
    default_params={"public_ratio": 0.2},
    paper_variants=[{"public_ratio": ratio} for ratio in PAPER_RATIOS],
)

# Figure 5: a fixed fraction of randomly chosen public and private nodes is replaced
# with fresh nodes every round (keeping the ratio stable), starting at t=61; 5 % is
# roughly 50× the churn measured in deployed P2P systems, and even that has no
# significant effect on the estimation error.
register_scenario(
    "churn",
    run_estimation_cell,
    description="steady-state churn: a fraction of each node class replaced every round (Figure 5)",
    default_params={"churn_fraction": 0.01, "churn_start_round": 10},
    paper_variants=[
        {"churn_fraction": level, "churn_start_round": 61} for level in PAPER_CHURN_LEVELS
    ],
)

# Figure 7(a): steady-state bytes/second per node, split into public and private
# nodes. Headline: Croupier's private-node overhead is less than half of Gozar's and
# less than a quarter of Nylon's, while its public-node overhead also stays the lowest.
register_scenario(
    "overhead",
    run_estimation_cell,
    description="steady-state per-class traffic load, Croupier at the paper's "
    "overhead configuration α=25, γ=100, ≤10 piggy-backed estimates (Figure 7a)",
    default_params={"croupier_gamma": 100, "max_estimates": 10},
)

# Ablations A1 and A4 and `repro run quick`: the private share of views and samples and
# the view ages (not a paper figure; why Croupier splits its views and selects by age).
# Drawing samples needs a per-node sampling service, so only engine="object" runs it.
register_scenario(
    "pss",
    run_pss_cell,
    description="instant population; also reads private nodes' share of the views and "
    "of drawn samples, and the view ages (ablations A1, A4; object engine only)",
    default_params={"samples_per_node": SAMPLES_PER_NODE},
)
