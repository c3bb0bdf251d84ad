"""The typed per-cell metric payload the experiment matrix records.

A :class:`MetricPayload` is what one executed matrix cell produces: flat scalar
metrics (what PR 2's aggregates already carried), plus **named histograms** (integer
bins → counts, e.g. the Figure 6(a) in-degree distribution) and **named series**
((time, value) pairs, e.g. the estimation-error trajectory). Payloads are pure data —
JSON-round-trippable with a canonical, key-sorted representation — so the runner's
byte-identical-aggregate contract extends to histogram- and series-carrying cells.

The payloads are produced by :class:`~repro.metrics.probes.MetricProbe` objects; see
that module for the pluggable measurement side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from repro.errors import ExperimentError

#: JSON-representable scalar metric value.
Scalar = Union[int, float]
#: One histogram: integer bin -> non-negative count.
Histogram = Dict[int, int]
#: One series: (time_ms, value) points in recording order.
Series = List[Tuple[float, float]]


@dataclass
class MetricPayload:
    """Everything one matrix cell measured.

    ``scalars`` feed the per-group mean/min/max/p50/p90 aggregation (and the CSV
    artifact); ``histograms`` are summed bin-wise across the seeds of a cell group;
    ``series`` are carried per cell for downstream plotting and are never aggregated.
    """

    scalars: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    series: Dict[str, Series] = field(default_factory=dict)

    # ------------------------------------------------------------------ recording

    def set_scalar(self, name: str, value: Scalar) -> None:
        self.scalars[name] = float(value)

    def set_histogram(self, name: str, histogram: Mapping[int, int]) -> None:
        self.histograms[name] = {int(bin_): int(count) for bin_, count in histogram.items()}

    def set_series(self, name: str, points: Sequence[Tuple[float, float]]) -> None:
        self.series[name] = [(float(t), float(v)) for t, v in points]

    def merge(self, other: "MetricPayload") -> None:
        """Fold another payload in; duplicate names are an error (probes must not
        silently overwrite each other's measurements)."""
        for kind, mine, theirs in (
            ("scalar", self.scalars, other.scalars),
            ("histogram", self.histograms, other.histograms),
            ("series", self.series, other.series),
        ):
            for name in theirs:
                if name in mine:
                    raise ExperimentError(f"duplicate {kind} metric {name!r} in payload merge")
            mine.update(theirs)

    # ------------------------------------------------------------------ JSON round trip

    def to_json_dict(self) -> Dict:
        """Canonical JSON form: sorted names, string histogram bins (JSON keys must be
        strings), series as [time, value] pairs. ``from_json_dict`` inverts exactly."""
        return {
            "scalars": {name: self.scalars[name] for name in sorted(self.scalars)},
            "histograms": {
                name: {str(bin_): count for bin_, count in sorted(self.histograms[name].items())}
                for name in sorted(self.histograms)
            },
            "series": {
                name: [[t, v] for t, v in self.series[name]] for name in sorted(self.series)
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MetricPayload":
        payload = cls()
        for name, value in data.get("scalars", {}).items():
            payload.set_scalar(name, value)
        for name, histogram in data.get("histograms", {}).items():
            payload.set_histogram(name, {int(bin_): count for bin_, count in histogram.items()})
        for name, points in data.get("series", {}).items():
            payload.set_series(name, [(t, v) for t, v in points])
        return payload


def merge_histograms(histograms: Sequence[Mapping[int, int]]) -> Histogram:
    """Bin-wise sum of histograms — how a cell group's seeds aggregate (the combined
    in-degree distribution over all runs, as the paper's Figure 6(a) plots it)."""
    merged: Histogram = {}
    for histogram in histograms:
        for bin_, count in histogram.items():
            bin_ = int(bin_)
            merged[bin_] = merged.get(bin_, 0) + int(count)
    return dict(sorted(merged.items()))


def histogram_statistics(histogram: Mapping[int, int]) -> Dict[str, float]:
    """Mean / stddev / max over a histogram's underlying values (weighted by count)."""
    total = sum(histogram.values())
    if total == 0:
        return {"mean": 0.0, "stddev": 0.0, "min": 0.0, "max": 0.0, "count": 0.0}
    mean = sum(bin_ * count for bin_, count in histogram.items()) / total
    variance = sum(count * (bin_ - mean) ** 2 for bin_, count in histogram.items()) / total
    return {
        "mean": mean,
        "stddev": variance ** 0.5,
        "min": float(min(histogram)),
        "max": float(max(histogram)),
        "count": float(total),
    }
