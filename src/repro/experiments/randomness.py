"""Figure 6: randomness properties of the overlay (Croupier vs. Gozar vs. Nylon vs. Cyclon).

Three classic graph metrics are tracked while the protocols run:

* **in-degree distribution** after 250 rounds (Figure 6a) — should be concentrated,
  close to Cyclon's;
* **average path length** over time (Figure 6b) — all protocols track Cyclon closely
  (Gozar starts higher while private nodes look for relay parents);
* **clustering coefficient** over time (Figure 6c) — Croupier's ends up the lowest,
  because two private nodes never exchange views directly.

Cyclon is the "true randomness" baseline and, as in the paper, runs with public nodes
only (it cannot traverse NATs).
"""

from __future__ import annotations

from repro.experiments.matrix import (
    CellContext,
    measure_cell,
    public_only_baseline,
    register_scenario,
)
from repro.metrics.graph import (
    average_clustering_coefficient,
    average_path_length,
    build_overlay_graph,
)
from repro.metrics.payload import MetricPayload

#: The kind's ``measure_every_rounds``: its default param and the runner's fallback.
MEASURE_EVERY_ROUNDS = 10


def run_randomness_cell(ctx: CellContext) -> MetricPayload:
    """One Figure 6 matrix cell: run the protocol, sample randomness metrics over time.

    The payload carries the final ``in_degree`` histogram (Figure 6a, via the standard
    graph probe) plus ``path_length`` and ``clustering`` series sampled every
    ``measure_every_rounds`` rounds (Figures 6b/6c). NAT-oblivious protocols (Cyclon)
    run over public nodes only, as in the paper.
    """
    cell = ctx.cell
    if public_only_baseline(cell.protocol):
        scenario = ctx.populated_scenario(n_public=cell.size, n_private=0)
    else:
        scenario = ctx.populated_scenario()
    installed = ctx.install_timeline(scenario)

    measure_every = int(cell.param("measure_every_rounds", MEASURE_EVERY_ROUNDS))
    sources = int(cell.param("path_length_sources", 30))
    series_rng = scenario.sim.derive_rng("randomness-series")
    path_points = []
    clustering_points = []
    executed = 0
    while executed < cell.rounds:
        step = min(measure_every, cell.rounds - executed)
        installed.advance_rounds(step)
        executed += step
        graph = build_overlay_graph(scenario.overlay_graph())
        path = average_path_length(graph, sample_sources=sources, rng=series_rng)
        clustering = average_clustering_coefficient(graph)
        if path is not None:
            path_points.append((scenario.now, path))
        if clustering is not None:
            clustering_points.append((scenario.now, clustering))

    payload = measure_cell(scenario, path_length_sources=sources)
    payload.set_series("path_length", path_points)
    payload.set_series("clustering", clustering_points)
    return payload


register_scenario(
    "randomness",
    run_randomness_cell,
    description="overlay randomness over time: in-degree histogram plus path-length "
    "and clustering series (Figure 6; Cyclon runs public-only)",
    default_params={"measure_every_rounds": MEASURE_EVERY_ROUNDS},
)
