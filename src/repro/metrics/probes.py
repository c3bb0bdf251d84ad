"""Pluggable per-cell metric probes.

A :class:`MetricProbe` measures one family of quantities on a finished (or running)
scenario and records them into a :class:`~repro.metrics.payload.MetricPayload`. A probe
that only makes sense for some protocols says so in :meth:`MetricProbe.supported_by`,
which reads the protocol's registered plugin; that is how the estimation-error metrics
exist for Croupier cells but not Cyclon cells — without any ``isinstance`` probing of
concrete protocol classes.

The built-in set (:func:`default_probes`) covers what the paper's figures plot:

* :class:`CoreProbe` — population, ground-truth ratio, fidelity counters;
* :class:`EstimationProbe` — ω̂ estimation error statistics and the error series
  (protocols whose plugin ``estimates_ratio``, i.e. Croupier's strategy);
* :class:`GraphProbe` — in-degree distribution (histogram + statistics), average path
  length, clustering coefficient, biggest-cluster fraction (Figures 6 and 7b);
* :class:`OverheadProbe` — per-class traffic load over a measurement window
  (Figure 7a).

Custom probes are ordinary objects: subclass :class:`MetricProbe`, pass them to
``measure_cell(..., probes=...)`` or into a registered scenario kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.metrics.payload import MetricPayload


def collect_ratio_estimates(scenario, min_rounds: int = 2) -> List[float]:
    """``scenario.ratio_estimates(min_rounds)``: every live, warmed-up node's ω̂.

    Nodes that have executed fewer than ``min_rounds`` rounds are excluded, exactly as
    in the paper ("evaluation metrics for new nodes ... are not included until they
    have executed 2 rounds"). Returns ``[]`` when the scenario's protocol does not
    estimate ratios.
    """
    return scenario.ratio_estimates(min_rounds)


@dataclass
class ProbeContext:
    """Cross-probe inputs the cell runner gathered while driving the scenario."""

    #: Estimation-error series recorded round by round (estimating protocols only).
    error_series: Optional[object] = None
    #: Traffic snapshot taken at the start of the overhead measurement window.
    overhead_window: Optional[object] = None
    #: Label for the metrics RNG derivation (path-length source sampling).
    rng_label: str = "matrix-metrics"
    #: BFS sources used to estimate the average path length.
    path_length_sources: int = 30
    #: Percentiles reported for the per-cell estimation-error series.
    series_percentiles: Tuple[Tuple[int, str], ...] = ((50, "p50"), (90, "p90"))


class MetricProbe:
    """One pluggable measurement; subclasses set ``name``, implement :meth:`measure`
    and, if they apply to some protocols only, override :meth:`supported_by`."""

    #: Identifier used in docs and error messages.
    name: str = "probe"

    def supported_by(self, plugin) -> bool:
        """Whether this probe measures anything for ``plugin``'s protocol."""
        return True

    def measure(self, scenario, payload: MetricPayload, context: ProbeContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name})"


class CoreProbe(MetricProbe):
    """Population size, ground-truth ratio and simulator fidelity counters."""

    name = "core"

    def measure(self, scenario, payload: MetricPayload, context: ProbeContext) -> None:
        payload.set_scalar("live_nodes", float(scenario.live_count()))
        payload.set_scalar("true_ratio", scenario.true_ratio())
        payload.set_scalar("events_executed", float(scenario.sim.events_executed))
        payload.set_scalar("packets_sent", float(scenario.network.packets_sent))


class EstimationProbe(MetricProbe):
    """ω̂ estimation error: current mean estimate plus error-series statistics.

    The scalar names match the pre-payload aggregates (``est_mean``,
    ``est_err_avg_final``, ``est_err_max_final``, ``est_err_avg_p50/p90``); the full
    average-error trajectory additionally lands in the payload as the
    ``est_err_avg`` series.
    """

    name = "estimation"

    def supported_by(self, plugin) -> bool:
        return plugin.estimates_ratio

    def measure(self, scenario, payload: MetricPayload, context: ProbeContext) -> None:
        from repro.metrics.collector import percentile

        estimates = scenario.ratio_estimates()
        if estimates:
            payload.set_scalar("est_mean", sum(estimates) / len(estimates))
        series = context.error_series
        if series is None or not len(series):
            return
        avg_series = series.avg_error_series()
        final_avg = series.final_avg_error()
        final_max = series.final_max_error()
        if final_avg is not None:
            payload.set_scalar("est_err_avg_final", final_avg)
        if final_max is not None:
            payload.set_scalar("est_err_max_final", final_max)
        for q, label in context.series_percentiles:
            if avg_series:
                payload.set_scalar(f"est_err_avg_{label}", percentile(avg_series, q))
        payload.set_series(
            "est_err_avg",
            [
                (sample.time_ms, sample.avg_error)
                for sample in series.samples
                if sample.avg_error is not None
            ],
        )


class GraphProbe(MetricProbe):
    """Overlay randomness (Figure 6) and connectivity (Figure 7b) metrics.

    Records the in-degree distribution both as summary scalars and as the
    ``in_degree`` histogram — the series the paper's Figure 6(a) plots. When the
    scenario runs a heterogeneous gateway population (a
    :class:`~repro.nat.mixture.NatMixture`), the distribution is additionally broken
    down per NAT class as ``in_degree_<class>`` histograms (``public``, ``upnp`` and
    one per sampled profile name) with ``indeg_mean_<class>`` scalars — the paper's
    question of whether hard-to-traverse NAT types are underrepresented in views.
    Homogeneous cells carry no breakdown, so pre-mixture payloads are unchanged.
    """

    name = "graph"

    def measure(self, scenario, payload: MetricPayload, context: ProbeContext) -> None:
        from collections import Counter

        from repro.metrics.graph import (
            average_clustering_coefficient,
            average_path_length,
            build_overlay_graph,
            degree_statistics,
            in_degree_distribution,
            in_degrees,
        )
        from repro.metrics.partition import largest_cluster_fraction

        graph = build_overlay_graph(scenario.overlay_graph())
        if not graph:
            return
        stats = degree_statistics(graph)
        payload.set_scalar("indeg_mean", stats["mean"])
        payload.set_scalar("indeg_stddev", stats["stddev"])
        payload.set_scalar("indeg_max", stats["max"])
        payload.set_scalar("biggest_cluster_fraction", largest_cluster_fraction(graph))
        payload.set_histogram("in_degree", in_degree_distribution(graph))
        if getattr(scenario.config, "nat_mixture", None) is not None:
            degrees = in_degrees(graph)
            for label, node_ids in sorted(scenario.nat_class_members().items()):
                class_degrees = [degrees[n] for n in node_ids if n in degrees]
                if not class_degrees:
                    continue
                payload.set_histogram(f"in_degree_{label}", dict(Counter(class_degrees)))
                payload.set_scalar(
                    f"indeg_mean_{label}", sum(class_degrees) / len(class_degrees)
                )
        metrics_rng = scenario.sim.derive_rng(context.rng_label)
        path = average_path_length(
            graph, sample_sources=context.path_length_sources, rng=metrics_rng
        )
        clustering = average_clustering_coefficient(graph)
        if path is not None:
            payload.set_scalar("path_length", path)
        if clustering is not None:
            payload.set_scalar("clustering", clustering)


class OverheadProbe(MetricProbe):
    """Figure 7(a) per-class load over the measurement window the runner opened."""

    name = "overhead"

    def measure(self, scenario, payload: MetricPayload, context: ProbeContext) -> None:
        if context.overhead_window is None:
            return
        for label, load in scenario.load_by_class(context.overhead_window).items():
            payload.set_scalar(f"{label}_bps", load)


def default_probes() -> Tuple[MetricProbe, ...]:
    """The standard probe set every matrix cell runs (gated per protocol)."""
    return (CoreProbe(), EstimationProbe(), GraphProbe(), OverheadProbe())


def run_probes(
    scenario,
    context: Optional[ProbeContext] = None,
    probes: Optional[Sequence[MetricProbe]] = None,
) -> MetricPayload:
    """Run every applicable probe against ``scenario`` and return the merged payload.

    Probes that do not support the scenario's protocol are skipped (that absence *is*
    the measurement — e.g. no ω̂ error for Cyclon).
    """
    context = context or ProbeContext()
    payload = MetricPayload()
    plugin = scenario.plugin
    for probe in probes if probes is not None else default_probes():
        if not probe.supported_by(plugin):
            continue
        contribution = MetricPayload()
        probe.measure(scenario, contribution, context)
        payload.merge(contribution)
    return payload
