"""Observation and analysis utilities used by the experiments.

Nothing in this package participates in the protocols: these are *measurement* tools,
the simulation-side equivalent of the paper's evaluation scripts.

* :mod:`~repro.metrics.estimation` — average/maximum estimation error over time
  (Figures 1–5).
* :mod:`~repro.metrics.graph` — overlay graph statistics: in-degree distribution,
  average path length, clustering coefficient (Figure 6).
* :mod:`~repro.metrics.partition` — size of the biggest connected cluster (Figure 7b).
* :mod:`~repro.metrics.collector` — small time-series containers shared by the
  experiment harnesses, plus the deterministic aggregation the matrix runner uses.
* :mod:`~repro.metrics.payload` — the typed per-cell :class:`MetricPayload`
  (scalars + named histograms + named series, JSON-round-trippable).
* :mod:`~repro.metrics.probes` — pluggable per-protocol-gated :class:`MetricProbe`
  objects that produce the payloads (the per-class traffic load of Figure 7a is
  the scenario's own ``load_by_class``).
"""

from repro.metrics.collector import TimeSeries
from repro.metrics.estimation import EstimationErrorSample, EstimationErrorSeries
from repro.metrics.payload import MetricPayload, histogram_statistics, merge_histograms
from repro.metrics.probes import (
    CoreProbe,
    EstimationProbe,
    GraphProbe,
    MetricProbe,
    OverheadProbe,
    ProbeContext,
    collect_ratio_estimates,
    default_probes,
    run_probes,
)
from repro.metrics.graph import (
    average_clustering_coefficient,
    average_path_length,
    in_degree_distribution,
    in_degrees,
)
from repro.metrics.partition import largest_cluster_fraction

__all__ = [
    "CoreProbe",
    "EstimationErrorSample",
    "EstimationErrorSeries",
    "EstimationProbe",
    "GraphProbe",
    "MetricPayload",
    "MetricProbe",
    "OverheadProbe",
    "ProbeContext",
    "TimeSeries",
    "average_clustering_coefficient",
    "average_path_length",
    "collect_ratio_estimates",
    "default_probes",
    "histogram_statistics",
    "in_degree_distribution",
    "in_degrees",
    "largest_cluster_fraction",
    "merge_histograms",
    "run_probes",
]
