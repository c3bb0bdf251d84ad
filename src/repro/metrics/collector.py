"""Time-series containers and metric aggregation used by the experiment harnesses.

Besides the per-run :class:`TimeSeries`, this module hosts the aggregation layer the
experiment-matrix runner feeds: per-cell ``{metric: value}`` dicts are summarised into
deterministic statistics (mean, min, max, p50, p90) per metric — per group of cells
(e.g. across seeds of one protocol/scenario/size combination) and overall. Everything
is a pure function of the inputs, so a parallel matrix run aggregates byte-identically
to a sequential one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence


@dataclass
class TimeSeries:
    """A named sequence of (time, value) points.

    The experiments use one series per plotted line (e.g. one per α/γ pair in Figure 1)
    and print them with :mod:`repro.experiments.report`.
    """

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.values)


def merge_series(series: Sequence[TimeSeries]) -> Dict[str, TimeSeries]:
    """Index a collection of series by name (duplicate names keep the last one)."""
    return {s.name: s for s in series}


# ------------------------------------------------------------------ metric aggregation


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0–100) with linear interpolation between ranks.

    Matches numpy's default ("linear") method; implemented here so the simulation stack
    stays dependency-free. Raises ``ValueError`` on an empty input.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def summarize_values(values: Sequence[float]) -> Dict[str, float]:
    """The standard summary the matrix aggregates report for one metric."""
    if not values:
        raise ValueError("summary of empty sequence")
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
    }


def aggregate_metrics(
    rows: Sequence[Mapping[str, float]],
) -> Dict[str, Dict[str, float]]:
    """Summarise a list of per-cell metric dicts, metric by metric.

    Metrics missing from some rows are summarised over the rows that have them (the
    ``count`` field records how many did) — e.g. ω̂ estimation error only exists for
    Croupier cells.
    """
    by_metric: Dict[str, List[float]] = {}
    for row in rows:
        for name, value in row.items():
            by_metric.setdefault(name, []).append(float(value))
    return {name: summarize_values(values) for name, values in sorted(by_metric.items())}


def aggregate_groups(
    grouped_rows: Mapping[str, Sequence[Mapping[str, float]]],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Apply :func:`aggregate_metrics` to every named group of metric rows."""
    return {name: aggregate_metrics(rows) for name, rows in sorted(grouped_rows.items())}


def aggregate_group_histograms(
    grouped_histograms: Mapping[str, Sequence[Mapping[str, Mapping[int, int]]]],
) -> Dict[str, Dict[str, Dict[int, int]]]:
    """Merge per-cell histogram dicts group by group (bin-wise sums across seeds).

    Input shape: ``{group: [cell_histograms, ...]}`` where each ``cell_histograms`` is
    the ``{name: {bin: count}}`` mapping of one cell's
    :class:`~repro.metrics.payload.MetricPayload`. Output keeps only groups that
    recorded at least one histogram.
    """
    from repro.metrics.payload import merge_histograms

    merged: Dict[str, Dict[str, Dict[int, int]]] = {}
    for group, cell_histograms in sorted(grouped_histograms.items()):
        names = sorted({name for histograms in cell_histograms for name in histograms})
        if not names:
            continue
        merged[group] = {
            name: merge_histograms(
                [histograms[name] for histograms in cell_histograms if name in histograms]
            )
            for name in names
        }
    return merged
