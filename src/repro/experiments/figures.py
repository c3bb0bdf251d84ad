"""The paper's figures, their horizon-scale run, ablations A1, A3 and A4, and
``quick``, as data: what ``repro run <name>`` executes.

A figure is an ordered list of :class:`~repro.experiments.matrix.CellSpec` values
naming a *registered scenario kind* with explicit params, plus one renderer over the
``(cell, payload)`` pairs that come back. :func:`run_figure` executes the cells
through :func:`~repro.experiments.matrix.run_cell` — the function the matrix pool
workers call — and ``repro matrix --figures NAME`` expands the same cells on the
matrix runner, so both share one code path, one validation and (for equal keys and
root seed) the same numbers. These cells are the only statement of the paper's
sweep points.
Nothing here builds a scenario or advances a round; ``docs/experiments.md`` tabulates
each figure's kind, params and cells.

A figure lists a branching kind's siblings (Figure 7(b): one protocol's failure
fractions) back to back, so they clone the one warmed prefix
:meth:`~repro.experiments.matrix.CellContext.populated_scenario` keeps instead of
each warming its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.constants import DEFAULT_PUBLIC_RATIO
# Importing a kind's module registers the kind.
from repro.experiments import catastrophic_failure, history_windows, scale  # noqa: F401
from repro.experiments.base import SAMPLES_PER_NODE
from repro.experiments.matrix import (
    CellSpec,
    ParamValue,
    public_only_baseline,
    run_cell,
)
from repro.experiments.nat_indegree import FALLBACK_MIXTURE
from repro.experiments.report import format_table, histogram_table, time_series_table
from repro.metrics.collector import TimeSeries, percentile
from repro.metrics.payload import MetricPayload

#: The paper's sweep points: the (α, γ) pairs of Figures 1 and 2, the public/private
#: ratios of Figure 4, the per-round churn fractions of Figure 5, the failure
#: fractions on Figure 7(b)'s x-axis and the protocols Figures 6 and 7 compare.
PAPER_WINDOW_PAIRS: Tuple[Tuple[int, int], ...] = ((10, 25), (25, 50), (100, 250))
PAPER_RATIOS = (0.05, 0.1, 0.2, 0.33, 0.5, 0.9)
PAPER_CHURN_LEVELS = (0.001, 0.01, 0.025, 0.05)
PAPER_FAILURE_FRACTIONS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
PAPER_PROTOCOLS = ("croupier", "gozar", "nylon", "cyclon")
#: Round at which Figure 5 starts churn / Figure 2 starts adding public nodes.
PAPER_CHURN_START_ROUND = 61
PAPER_RATIO_GROWTH_START_ROUND = 58
#: The Poisson join transient of Figures 1–3 — the ``history`` / ``join`` kinds' own
#: default, so a figure cell and the matching ``repro matrix`` cell share one key.
JOIN_WINDOW_MS = 5000.0


def _cell(kind: str, protocol: str, size: int, rounds: int,
          public_ratio: float = DEFAULT_PUBLIC_RATIO, **params: ParamValue) -> CellSpec:
    return CellSpec(
        scenario=kind, protocol=protocol, size=size, seed_index=0, rounds=rounds,
        public_ratio=public_ratio, params=tuple(sorted(params.items())),
    )


def _onset(paper_round: int, rounds: int) -> int:
    """Where a figure's dynamics start: the paper's round, or a third of the horizon
    when that comes sooner — never past the end of a scaled-down run, which would
    measure a static system under a dynamic label."""
    return min(paper_round, rounds // 3)


def history_cells(nodes: int, rounds: int, window_pairs=PAPER_WINDOW_PAIRS,
                  dynamic: bool = False) -> List[CellSpec]:
    growth: Dict[str, ParamValue] = {}
    if dynamic:
        # Raising ω from p to p' with V private nodes requires adding
        # Δ = (p'·(U+V) − U) / (1 − p') public nodes; the paper's 0.30 → 0.33 move
        # with 1000/4000 nodes corresponds to ~250 additions (one every 42 ms, the
        # kind's default interval). Scale the same three-point move.
        target = DEFAULT_PUBLIC_RATIO + 0.03
        n_public = max(1, int(round(nodes * DEFAULT_PUBLIC_RATIO)))
        growth = {
            "ratio_growth_count":
                max(1, int(round((target * nodes - n_public) / (1.0 - target)))),
            "ratio_growth_start_round": _onset(PAPER_RATIO_GROWTH_START_ROUND, rounds),
        }
    return [
        _cell("history", "croupier", nodes, rounds,
              alpha=alpha, gamma=gamma, join_window_ms=JOIN_WINDOW_MS, **growth)
        for alpha, gamma in window_pairs
    ]


def system_size_cells(nodes: int, rounds: int, sizes=()) -> List[CellSpec]:
    """``sizes`` defaults to half and all of ``nodes``: the paper's own ladder tops
    out at 5000 nodes, which no scaled-down run affords."""
    return [
        _cell("join", "croupier", size, rounds, join_window_ms=JOIN_WINDOW_MS)
        for size in (sizes or (nodes // 2, nodes))
    ]


def ratio_sweep_cells(nodes: int, rounds: int, ratios=PAPER_RATIOS) -> List[CellSpec]:
    return [_cell("ratio", "croupier", nodes, rounds, public_ratio=ratio)
            for ratio in ratios]


def churn_cells(nodes: int, rounds: int,
                churn_levels=PAPER_CHURN_LEVELS) -> List[CellSpec]:
    start = _onset(PAPER_CHURN_START_ROUND, rounds)
    return [
        _cell("churn", "croupier", nodes, rounds,
              churn_fraction=level, churn_start_round=start)
        for level in churn_levels
    ]


def scale_cells(nodes: int, rounds: int) -> List[CellSpec]:
    """Figures 1 and 5 at 10⁵–10⁶ nodes: a static and a 1 % churn ``scale`` cell on
    the columnar engine. ``measure_every`` is explicit: a cell reads its own params,
    not the kind's defaults."""
    return [
        replace(_cell("scale", "croupier", nodes, rounds, measure_every=5, **churn),
                engine="columnar")
        for churn in ({}, {"churn_fraction": 0.01,
                           "churn_start_round": _onset(PAPER_CHURN_START_ROUND, rounds)})
    ]


def protocol_cells(kind: str, nodes: int, rounds: int, protocols=PAPER_PROTOCOLS,
                   **params: ParamValue) -> List[CellSpec]:
    """One cell per protocol (Figures 6, 7a and the NAT-class figure). The paper's
    NAT-oblivious baseline (Cyclon) runs over public nodes only: ``public_ratio=1.0``."""
    return [
        _cell(kind, protocol, nodes, rounds, **params,
              public_ratio=(1.0 if public_only_baseline(protocol)
                            else DEFAULT_PUBLIC_RATIO))
        for protocol in protocols
    ]


def nat_indegree_cells(nodes: int, rounds: int, protocols=None,
                       **params: ParamValue) -> List[CellSpec]:
    """The paper's protocols with NAT classes to compare: a public-only baseline has
    none."""
    if protocols is None:
        protocols = [p for p in PAPER_PROTOCOLS if not public_only_baseline(p)]
    return protocol_cells("nat_indegree", nodes, rounds, protocols=protocols, **params)


def failure_cells(nodes: int, rounds: int, protocols=PAPER_PROTOCOLS,
                  fractions=PAPER_FAILURE_FRACTIONS) -> List[CellSpec]:
    """Figure 7(b): every failure fraction for each protocol, protocol by protocol,
    so one protocol's cells follow each other and share its warmed prefix."""
    return [cell for protocol in protocols for fraction in fractions
            for cell in protocol_cells("failure", nodes, rounds, (protocol,),
                                       failure_fraction=fraction)]


def pss_cells(nodes: int, rounds: int, protocols=("croupier",),
              samples_per_node: int = SAMPLES_PER_NODE,
              **params: ParamValue) -> List[CellSpec]:
    """One ``pss`` cell per protocol, every one over the same NATed population — the
    NAT-oblivious Cyclon too, which is where it under-represents private nodes (so
    not :func:`protocol_cells`, whose Cyclon is public-only)."""
    return [_cell("pss", protocol, nodes, rounds, samples_per_node=samples_per_node,
                  **params)
            for protocol in protocols]


def piggyback_cells(nodes: int, rounds: int,
                    bounds=(0, 2, 5, 10, 20)) -> List[CellSpec]:
    """Ablation A3: ``static`` Croupier cells, one per piggy-backed-estimate bound."""
    return [_cell("static", "croupier", nodes, rounds, max_estimates=bound)
            for bound in bounds]


def selection_cells(nodes: int, rounds: int, policies=("tail", "random"),
                    samples_per_node: int = SAMPLES_PER_NODE) -> List[CellSpec]:
    """Ablation A4: one Croupier ``pss`` cell per partner-selection policy."""
    return [_cell("pss", "croupier", nodes, rounds, samples_per_node=samples_per_node,
                  selection=policy)
            for policy in policies]


def _series(result: "FigureResult", name: str) -> List[TimeSeries]:
    # zip(*points) splits [(t, v), ...] into TimeSeries' times and values columns.
    return [TimeSeries(label, *zip(*payload.series.get(name, ())))
            for label, payload in result.rows()]


def render_estimation(result: "FigureResult") -> str:
    """Figures 1–5: converged ω̂ error per plotted line, then the average-error
    trajectory. (The summary's max is the tail mean of the per-round maximum; the
    per-round maximum itself is not part of the cell payload.)"""
    title = result.figure.title
    summary = format_table(
        ["series", "final avg error", "final max error", "true ratio", "samples"],
        [
            [label] + [payload.scalars.get(name) for name in
                       ("est_err_avg_final", "est_err_max_final", "true_ratio")]
            + [len(payload.series.get("est_err_avg", ()))]
            for label, payload in result.rows()
        ],
        title=title,
    )
    trajectory = time_series_table(
        _series(result, "est_err_avg"), title=f"{title.split(':')[0]}(a): average error"
    )
    return f"{summary}\n\n{trajectory}"


def render_scale(result: "FigureResult") -> str:
    """The estimation tables, then per line how many nodes its error covers and the
    spread of a reservoir sample of per-node estimates."""
    lines = [render_estimation(result), ""]
    for label, payload in result.rows():
        scatter = [value for _, value in payload.series.get("est_scatter", ())]
        quantiles = "  ".join(f"p{q}={percentile(scatter, q):.4f}"
                              for q in (5, 25, 50, 75, 95)) if scatter else "-"
        lines.append(f"{label}: {payload.scalars.get('est_nodes_measured', 0):,.0f} "
                     f"nodes measured, estimate scatter ({len(scatter)} sampled): "
                     f"{quantiles}")
    return "\n".join(lines)


def render_randomness(result: "FigureResult") -> str:
    title = result.figure.title
    return "\n\n".join([
        histogram_table(
            {label: payload.histograms.get("in_degree", {})
             for label, payload in result.rows()},
            title=f"{title}(a): in-degree distribution",
        ),
        time_series_table(_series(result, "path_length"), every=1,
                          title=f"{title}(b): average path length"),
        time_series_table(_series(result, "clustering"), every=1,
                          title=f"{title}(c): clustering coefficient"),
    ])


def render_overhead(result: "FigureResult") -> str:
    """Figure 7(a) plots load *relative to Cyclon*: the public-only baseline cell's
    per-node load is subtracted from every other protocol's."""
    baseline = next(
        (payload.scalars.get("all_bps") for cell, payload in result.cells
         if public_only_baseline(cell.protocol)), None,
    )
    rows = []
    for cell, payload in result.cells:
        public, private, total = (
            payload.scalars.get(name) for name in ("public_bps", "private_bps", "all_bps")
        )
        row = [cell.protocol, public, private, total, None, None]
        # The overhead probe records the three loads together or (rounds < 2) not at all.
        if None not in (baseline, public) and not public_only_baseline(cell.protocol):
            row[4:] = [public - baseline, private - baseline]
        rows.append(row)
    return format_table(
        ["protocol", "public B/s", "private B/s", "all B/s",
         "public rel. Cyclon", "private rel. Cyclon"],
        rows, title=result.figure.title,
    )


def render_nat_indegree(result: "FigureResult") -> str:
    prefix = "indeg_mean_"
    classes = sorted({
        name[len(prefix):] for _, payload in result.cells for name in payload.scalars
        if name.startswith(prefix)
    })
    return format_table(
        ["protocol"] + classes + ["symmetric underrep."],
        [
            [label] + [payload.scalars.get(prefix + c) for c in classes]
            + [payload.scalars.get("symmetric_underrepresentation")]
            for label, payload in result.rows()
        ],
        title=result.figure.title,
    )


def render_failure(result: "FigureResult") -> str:
    """Figure 7(b): the biggest cluster as a % of the survivors, one row per protocol
    and one column per failure fraction."""
    clusters: Dict[str, Dict[float, float]] = {}
    for cell, payload in result.cells:
        clusters.setdefault(cell.protocol, {})[cell.param("failure_fraction")] = (
            payload.scalars["biggest_cluster_fraction"])
    fractions = sorted({f for row in clusters.values() for f in row})
    return format_table(
        ["protocol"] + [f"{f * 100:g}% fail" for f in fractions],
        [[protocol] + [round(100.0 * row[f], 1) for f in fractions]
         for protocol, row in clusters.items()],
        title=result.figure.title,
    )


#: ``repro run quick``'s rows: (label, scalar).
_QUICK_ROWS = (
    ("live nodes", "live_nodes"),
    ("true public ratio", "true_ratio"),
    ("mean estimated ratio", "est_mean"),
    ("average estimation error", "est_err_avg_final"),
    ("maximum estimation error", "est_err_max_final"),
    ("biggest cluster fraction", "biggest_cluster_fraction"),
    ("average path length", "path_length"),
    ("clustering coefficient", "clustering"),
    ("samples drawn (public)", "samples_public"),
    ("samples drawn (private)", "samples_private"),
)


#: The rows that count something: payload scalars are floats, these print as ints.
_QUICK_COUNTS = ("live_nodes", "samples_public", "samples_private")


def render_quick(result: "FigureResult") -> str:
    """One cell, one row per metric."""
    [(_, payload)] = result.rows()
    return format_table(
        ["metric", "value"],
        [[label, round(payload.scalars[name]) if name in _QUICK_COUNTS
          else payload.scalars.get(name)] for label, name in _QUICK_ROWS],
        title=result.figure.title,
    )


def _scalar(name: str) -> Callable[[MetricPayload], object]:
    return lambda payload: payload.scalars.get(name)


def _private_bias(payload: MetricPayload) -> Optional[float]:
    """The true private share minus the sampled one (positive: under-represented)."""
    sampled = payload.scalars.get("sample_private_fraction")
    return None if sampled is None else 1.0 - payload.scalars["true_ratio"] - sampled


def render_columns(axis: str, *columns: Tuple[str, Callable[[MetricPayload], object]]
                   ) -> Callable[["FigureResult"], str]:
    """The ablations' table: one row per cell (its label under ``axis``), one column
    per ``(header, value of a payload)``."""
    def render(result: "FigureResult") -> str:
        return format_table(
            [axis] + [header for header, _ in columns],
            [[label] + [value(payload) for _, value in columns]
             for label, payload in result.rows()],
            title=result.figure.title,
        )
    return render


@dataclass(frozen=True)
class Figure:
    """One ``repro run`` entry: a title, ``cells(nodes, rounds, **sweep)``, the label
    of a cell's plotted line, and the renderer over the executed cells."""

    title: str
    cells: Callable[..., List[CellSpec]]
    label: Callable[[CellSpec], str]
    render: Callable[["FigureResult"], str]


def _windows(cell: CellSpec) -> str:
    return f"alpha={cell.param('alpha')}, gamma={cell.param('gamma')}"


def _churn(cell: CellSpec) -> str:
    return (f"churn={cell.param('churn_fraction') * 100:g}% "
            f"from t={cell.param('churn_start_round')}")


_protocol = attrgetter("protocol")

FIGURES: Dict[str, Figure] = {
    "history-static": Figure(
        "Figure 1: estimation error vs. history windows (static ratio)",
        history_cells, _windows, render_estimation),
    "history-dynamic": Figure(
        "Figure 2: estimation error vs. history windows (growing ratio)",
        partial(history_cells, dynamic=True), _windows, render_estimation),
    "system-size": Figure(
        "Figure 3: estimation error vs. system size",
        system_size_cells, lambda cell: f"N={cell.size}", render_estimation),
    "ratio-sweep": Figure(
        "Figure 4: estimation error vs. public/private ratio",
        ratio_sweep_cells, lambda cell: f"ratio={cell.public_ratio:g}",
        render_estimation),
    "churn": Figure(
        "Figure 5: estimation error under churn", churn_cells, _churn,
        render_estimation),
    "scale": Figure(
        "Horizon scale: Figure 1's static ratio and Figure 5's churn, columnar engine",
        scale_cells,
        lambda cell: _churn(cell) if cell.param("churn_fraction") else "static",
        render_scale),
    "randomness": Figure(
        "Figure 6", partial(protocol_cells, "randomness", measure_every_rounds=10),
        _protocol, render_randomness),
    "overhead": Figure(
        "Figure 7(a): average load per node (second half of the run)",
        partial(protocol_cells, "overhead", croupier_gamma=100, max_estimates=10),
        _protocol, render_overhead),
    "failure": Figure(
        "Figure 7(b): biggest cluster size (% of survivors)", failure_cells,
        lambda cell: f"{cell.protocol}, {cell.param('failure_fraction') * 100:g}% fail",
        render_failure),
    "nat-indegree": Figure(
        # Cells on the default mixture axis run the kind's fallback: the paper's.
        "Symmetric-NAT underrepresentation: mean in-degree per NAT class "
        f"({FALLBACK_MIXTURE!r} mixture)",
        nat_indegree_cells,
        _protocol, render_nat_indegree),
    "quick": Figure(
        "Quick run: a small Croupier system's estimation error, overlay and samples",
        pss_cells, _protocol, render_quick),
    "ablation-views": Figure(
        "Ablation A1: representation of private nodes",
        partial(pss_cells, protocols=PAPER_PROTOCOLS),
        _protocol,
        render_columns("protocol",
                       ("private in views", _scalar("view_private_fraction")),
                       ("private in samples", _scalar("sample_private_fraction")),
                       ("bias", _private_bias))),
    "ablation-piggyback": Figure(
        "Ablation A3: estimate piggy-backing bound", piggyback_cells,
        lambda cell: cell.param("max_estimates"),
        render_columns("max estimates/msg",
                       ("final avg error", _scalar("est_err_avg_final")),
                       ("all B/s", _scalar("all_bps")))),
    "ablation-selection": Figure(
        "Ablation A4: tail vs. random partner selection", selection_cells,
        lambda cell: cell.param("selection"),
        render_columns("selection policy",
                       ("final avg error", _scalar("est_err_avg_final")),
                       ("mean descriptor age", _scalar("view_age_mean")))),
}


@dataclass
class FigureResult:
    """A figure's executed cells, in figure order."""

    figure: Figure
    cells: List[Tuple[CellSpec, MetricPayload]]

    def by(self, field: str) -> Dict[object, MetricPayload]:
        """Payloads keyed by one cell field or param — the figure's sweep axis
        (``by("protocol")["gozar"]``, ``by("alpha")[25]``, ``by("size")[90]``)."""
        return {getattr(cell, field, cell.param(field)): payload
                for cell, payload in self.cells}

    def scalars(self, name: str, by: str) -> Dict[object, float]:
        """One scalar metric along the sweep axis: ``{sweep value: scalar}``."""
        return {value: payload.scalars[name] for value, payload in self.by(by).items()}

    def rows(self) -> List[Tuple[str, MetricPayload]]:
        return [(self.figure.label(cell), payload) for cell, payload in self.cells]

    def to_text(self) -> str:
        return self.figure.render(self)


def run_figure(name: str, nodes: int, rounds: int, seed: int = 42,
               latency: str = "king", **sweep: object) -> FigureResult:
    """Execute figure ``name`` cell by cell; ``sweep`` overrides the figure's sweep
    axis (``window_pairs``, ``sizes``, ``ratios``, ``churn_levels``, ``protocols``,
    ``fractions``, ``bounds``, ``policies``) or ``samples_per_node``. Every cell is
    validated before the first one runs, so a degenerate size or an unknown protocol
    is a named error, not a half-printed figure."""
    figure = FIGURES[name]
    cells = figure.cells(nodes, rounds, **sweep)
    for cell in cells:
        cell.validate()
    return FigureResult(
        figure, [(cell, run_cell(cell, root_seed=seed, latency=latency)) for cell in cells]
    )
