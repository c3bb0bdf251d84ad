"""Plain-text rendering of experiment results.

The paper presents its evaluation as figures; this module prints the same series as
aligned text tables so that running a benchmark or an example reproduces the numbers in
a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, List, Mapping, Optional, Sequence

from repro.metrics.collector import TimeSeries


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a simple aligned text table."""
    rendered_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.5f}"
        return f"{value:.4f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def time_series_table(
    series_list: Sequence[TimeSeries],
    every: int = 10,
    title: Optional[str] = None,
) -> str:
    """Tabulate generic time series (path length, clustering coefficient, ...)."""
    headers = ["t (s)"] + [s.name for s in series_list]
    rows: List[List[object]] = []
    length = max((len(s) for s in series_list), default=0)
    for index in range(0, length, max(1, every)):
        row: List[object] = []
        time_value: Optional[float] = None
        for series in series_list:
            if index < len(series.values):
                time_value = series.times[index] / 1000.0
                row.append(series.values[index])
            else:
                row.append(None)
        rows.append([time_value] + row)
    return format_table(headers, rows, title=title)


def histogram_table(
    histograms: Mapping[str, Mapping[int, int]],
    title: Optional[str] = None,
) -> str:
    """Tabulate in-degree histograms, one column per protocol (Figure 6a)."""
    all_degrees = sorted({d for h in histograms.values() for d in h})
    headers = ["in-degree"] + list(histograms)
    rows: List[List[object]] = []
    for degree in all_degrees:
        rows.append([degree] + [histograms[name].get(degree, 0) for name in histograms])
    return format_table(headers, rows, title=title)


def matrix_markdown_summary(aggregate: Mapping) -> str:
    """Render a matrix aggregate (see :mod:`repro.experiments.runner`) as markdown.

    One row per cell group (seeds collapsed), with the headline metrics the paper's
    figures plot; failed cells get their own section so CI logs surface them.
    """
    spec = aggregate.get("spec", {})
    groups = aggregate.get("groups", {})
    failed = aggregate.get("failed", [])
    degraded = aggregate.get("degraded", {})
    total_cells = len(aggregate.get("cells", {}))

    headline = (
        ("est_err_avg_final", "ω̂ err (avg)"),
        ("est_err_max_final", "ω̂ err (max)"),
        ("biggest_cluster_fraction", "biggest cluster"),
        ("path_length", "path len"),
        ("all_bps", "all B/s"),
    )
    if "figures" in spec:
        grid = [f"- figures: `{', '.join(spec['figures'])}`"]
    else:
        grid = [f"- scenarios: `{', '.join(spec.get('scenarios', []))}`",
                f"- protocols: `{', '.join(spec.get('protocols', []))}`"]
    lines = [
        "# Experiment matrix summary",
        "",
        *grid,
        f"- sizes: {', '.join(str(s) for s in spec.get('sizes', []))}"
        f" × seeds: {spec.get('seeds', '?')} × rounds: {spec.get('rounds', '?')}",
        f"- root seed: {spec.get('root_seed', '?')}, latency: {spec.get('latency', '?')}",
        f"- cells: {total_cells} total, {len(failed)} failed"
        + (f", {len(degraded)} degraded" if degraded else ""),
        "",
        "## Groups (mean over seeds)",
        "",
        "| group | cells | " + " | ".join(label for _, label in headline) + " |",
        "|" + "---|" * (2 + len(headline)),
    ]
    group_histograms = aggregate.get("group_histograms", {})
    for group_name, metrics in groups.items():
        count = 0
        for summary in metrics.values():
            count = max(count, int(summary.get("count", 0)))
        row = [f"`{group_name}`", str(count)]
        for metric, _label in headline:
            summary = metrics.get(metric)
            row.append(_fmt(summary["mean"]) if summary else "-")
        lines.append("| " + " | ".join(row) + " |")

    nat_lines = _nat_indegree_section(groups)
    if nat_lines:
        lines.extend(nat_lines)

    scale_lines = _scale_invariance_section(groups)
    if scale_lines:
        lines.extend(scale_lines)

    if group_histograms:
        lines.extend(["", "## Histogram payloads (merged across seeds)", ""])
        for group_name, histograms in group_histograms.items():
            for name, histogram in histograms.items():
                bins = len(histogram)
                total = sum(histogram.values())
                lines.append(f"- `{group_name}` · `{name}`: {bins} bins, {total} samples")

    if failed:
        lines.extend(["", "## Failed cells", ""])
        lines.extend(f"- `{key}`" for key in failed)

    if degraded:
        lines.extend(["", "## Degraded cells (transient-fault retries exhausted)", ""])
        for key in sorted(degraded):
            entry = degraded[key]
            faults = ", ".join(entry.get("faults", [])) or "?"
            lines.append(
                f"- `{key}` — {entry.get('attempts', '?')} attempts, faults: {faults}"
            )
    lines.append("")
    return "\n".join(lines)


def _nat_indegree_section(groups: Mapping) -> List[str]:
    """The symmetric-NAT underrepresentation section of the matrix summary.

    Rendered for every group whose cells recorded the per-NAT-class in-degree
    breakdown (``indeg_mean_<class>`` — mixture populations and the ``nat_indegree``
    kind): one row per NAT class with its mean in-degree relative to public nodes,
    which is the paper's claim that hard-to-traverse NAT types are underrepresented
    in views. Groups without the breakdown render nothing, keeping legacy summaries
    unchanged.
    """
    rows: List[List[object]] = []
    for group_name, metrics in groups.items():
        class_means = {
            name[len("indeg_mean_"):]: summary["mean"]
            for name, summary in metrics.items()
            if name.startswith("indeg_mean_")
        }
        public = class_means.get("public")
        if not public or len(class_means) < 2:
            continue
        for label in sorted(class_means):
            rows.append(
                [
                    f"`{group_name}`",
                    label,
                    _fmt(class_means[label]),
                    f"{class_means[label] / public:.2f}×",
                ]
            )
    if not rows:
        return []
    lines = [
        "",
        "## NAT-class in-degree (symmetric-NAT underrepresentation)",
        "",
        "| group | NAT class | mean in-degree | vs public |",
        "|---|---|---|---|",
    ]
    lines.extend("| " + " | ".join(str(cell) for cell in row) + " |" for row in rows)
    return lines


def _scale_invariance_section(groups: Mapping) -> List[str]:
    """The scale-invariance section of the matrix summary: ω̂ error vs N.

    Rendered only when the aggregate contains groups of the ``scale`` scenario
    kind (the 10⁵⁺-node columnar cells): one row per group ordered by system
    size, so the paper's claim — estimation error does not degrade with N —
    reads straight down the table. Aggregates without scale cells render
    nothing, keeping legacy summaries byte-identical.
    """
    rows: List[tuple] = []
    for group_name, metrics in groups.items():
        parts = dict(
            part.split("=", 1) for part in group_name.split(";") if "=" in part
        )
        if parts.get("scenario") != "scale":
            continue
        try:
            size = int(parts.get("size", "0"))
        except ValueError:
            size = 0
        avg = metrics.get("est_err_avg_final")
        max_ = metrics.get("est_err_max_final")
        measured = metrics.get("est_nodes_measured")
        rows.append(
            (
                size,
                group_name,
                parts.get("engine", "object"),
                _fmt(avg["mean"]) if avg else "-",
                _fmt(max_["mean"]) if max_ else "-",
                f"{measured['mean']:.0f}" if measured else "-",
            )
        )
    if not rows:
        return []
    lines = [
        "",
        "## Scale invariance (ω̂ error vs N)",
        "",
        "| group | engine | N | ω̂ err (avg) | ω̂ err (max) | nodes measured |",
        "|---|---|---|---|---|---|",
    ]
    for size, group_name, engine, avg, max_, measured in sorted(rows):
        lines.append(
            f"| `{group_name}` | {engine} | {size} | {avg} | {max_} | {measured} |"
        )
    return lines


# ------------------------------------------------------------------ aggregate diffing

#: Metrics where a higher value in the new aggregate is a regression (error, cost and
#: stretch metrics — everything the paper wants small).
LOWER_IS_BETTER = frozenset(
    {
        "est_err_avg_final",
        "est_err_max_final",
        "est_err_avg_p50",
        "est_err_avg_p90",
        "path_length",
        "clustering",
        "indeg_stddev",
        "indeg_max",
        "public_bps",
        "private_bps",
        "all_bps",
    }
)

#: Metrics where a lower value in the new aggregate is a regression (connectivity and
#: survival — everything the paper wants large).
HIGHER_IS_BETTER = frozenset({"biggest_cluster_fraction", "live_nodes", "survivors"})


def ks_distance(
    old: Mapping[int, int],
    new: Mapping[int, int],
) -> float:
    """Kolmogorov–Smirnov distance between two integer-bin histograms.

    Both histograms are read as empirical distributions (bin → count, normalised by
    their totals); the distance is the maximum absolute difference of the two CDFs
    over the union of bins — 0.0 for identical shapes, 1.0 for disjoint supports.
    Bin keys may be ints or the strings the aggregate JSON stores them as.
    """
    old_counts = {int(bin_): count for bin_, count in old.items()}
    new_counts = {int(bin_): count for bin_, count in new.items()}
    old_total = float(sum(old_counts.values()))
    new_total = float(sum(new_counts.values()))
    if old_total == 0.0 or new_total == 0.0:
        return 0.0 if old_total == new_total else 1.0
    distance = 0.0
    cdf_old = 0.0
    cdf_new = 0.0
    for bin_ in sorted(set(old_counts) | set(new_counts)):
        cdf_old += old_counts.get(bin_, 0) / old_total
        cdf_new += new_counts.get(bin_, 0) / new_total
        gap = abs(cdf_old - cdf_new)
        if gap > distance:
            distance = gap
    return distance


@dataclass
class MetricChange:
    """One per-group metric whose mean moved beyond the diff tolerance."""

    group: str
    metric: str
    old_mean: float
    new_mean: float
    rel_change: float  # signed, relative to max(|old|, |new|)

    @property
    def direction(self) -> str:
        """``"worse"``/``"better"`` for oriented metrics, ``"changed"`` otherwise."""
        higher = self.new_mean > self.old_mean
        if self.metric in LOWER_IS_BETTER:
            return "worse" if higher else "better"
        if self.metric in HIGHER_IS_BETTER:
            return "better" if higher else "worse"
        return "changed"


@dataclass
class HistogramChange:
    """One per-group histogram whose shape moved (Kolmogorov–Smirnov distance > 0)."""

    group: str
    name: str
    distance: float
    old_samples: int
    new_samples: int
    gates: bool  # True when the distance exceeds the KS tolerance

    @property
    def verdict(self) -> str:
        return "drifted" if self.gates else "within-tolerance"


@dataclass
class AggregateDiff:
    """The comparison of two matrix aggregates (``repro report --diff OLD NEW``)."""

    tolerance: float
    ks_tolerance: float = 0.1
    changes: List[MetricChange] = dataclass_field(default_factory=list)
    missing_groups: List[str] = dataclass_field(default_factory=list)
    added_groups: List[str] = dataclass_field(default_factory=list)
    #: ``"group/metric"`` entries present in OLD but absent from NEW (shared groups).
    missing_metrics: List[str] = dataclass_field(default_factory=list)
    newly_failed_cells: List[str] = dataclass_field(default_factory=list)
    recovered_cells: List[str] = dataclass_field(default_factory=list)
    #: Every compared group histogram with a non-zero KS distance (gating or not).
    histogram_changes: List[HistogramChange] = dataclass_field(default_factory=list)
    #: ``"group/histogram"`` entries present in OLD but absent from NEW (shared groups).
    missing_histograms: List[str] = dataclass_field(default_factory=list)

    @property
    def regressions(self) -> List[MetricChange]:
        return [c for c in self.changes if c.direction == "worse"]

    @property
    def improvements(self) -> List[MetricChange]:
        return [c for c in self.changes if c.direction == "better"]

    @property
    def missing_gated_metrics(self) -> List[str]:
        """Disappeared metrics that the gate actually watches (oriented ones) — a
        vanished error metric must fail the gate, not slip past the intersection."""
        return [
            entry
            for entry in self.missing_metrics
            if entry.rsplit("/", 1)[-1] in LOWER_IS_BETTER | HIGHER_IS_BETTER
        ]

    @property
    def histogram_regressions(self) -> List[HistogramChange]:
        """Histogram drifts beyond the KS tolerance — randomness regressions gate."""
        return [c for c in self.histogram_changes if c.gates]

    @property
    def has_regressions(self) -> bool:
        """Metric regressions, disappeared groups/metrics/histograms, histogram
        drifts beyond the KS tolerance or newly failing cells all count."""
        return bool(
            self.regressions
            or self.missing_groups
            or self.missing_gated_metrics
            or self.newly_failed_cells
            or self.histogram_regressions
            or self.missing_histograms
        )

    def to_text(self) -> str:
        lines = [
            f"aggregate diff (tolerance: {self.tolerance:.1%} relative change of group "
            f"means; KS tolerance: {self.ks_tolerance:.2f} on group histograms)"
        ]
        if not (self.changes or self.missing_groups or self.added_groups
                or self.missing_metrics or self.newly_failed_cells
                or self.recovered_cells or self.histogram_changes
                or self.missing_histograms):
            lines.append("no differences beyond tolerance")
            return "\n".join(lines)
        if self.changes:
            rows = [
                [c.direction, c.group, c.metric, c.old_mean, c.new_mean,
                 f"{c.rel_change:+.1%}"]
                for c in sorted(
                    self.changes,
                    key=lambda c: (c.direction != "worse", c.group, c.metric),
                )
            ]
            lines.append(
                format_table(
                    ["verdict", "group", "metric", "old mean", "new mean", "change"],
                    rows,
                )
            )
        if self.histogram_changes:
            rows = [
                [c.verdict, c.group, c.name, f"{c.distance:.4f}",
                 c.old_samples, c.new_samples]
                for c in sorted(
                    self.histogram_changes,
                    key=lambda c: (-c.distance, c.group, c.name),
                )
            ]
            lines.append(
                format_table(
                    ["verdict", "group", "histogram", "KS distance",
                     "old n", "new n"],
                    rows,
                    title="histogram shapes (Kolmogorov–Smirnov distance of CDFs):",
                )
            )
        for label, keys in (
            ("groups only in OLD", self.missing_groups),
            ("groups only in NEW", self.added_groups),
            ("metrics missing from NEW (gated ones regress)", self.missing_metrics),
            ("histograms missing from NEW (regress)", self.missing_histograms),
            ("cells newly failing in NEW", self.newly_failed_cells),
            ("cells recovered in NEW", self.recovered_cells),
        ):
            if keys:
                lines.append(f"{label}:")
                lines.extend(f"  - {key}" for key in keys)
        lines.append(
            f"summary: {len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{len(self.changes) - len(self.regressions) - len(self.improvements)} "
            f"neutral change(s), {len(self.histogram_regressions)} histogram drift(s) "
            f"beyond KS tolerance"
        )
        return "\n".join(lines)


def diff_aggregates(
    old: Mapping,
    new: Mapping,
    tolerance: float = 0.05,
    ks_tolerance: float = 0.1,
) -> AggregateDiff:
    """Compare two matrix aggregates group by group, metric by metric.

    A metric *changed* when the relative difference of its group means exceeds
    ``tolerance`` (relative to the larger magnitude, with a 1e-9 absolute floor so
    exactly-zero error metrics don't flag on noise-free reruns). Whether a change is a
    *regression* follows the metric's orientation (:data:`LOWER_IS_BETTER` /
    :data:`HIGHER_IS_BETTER`); unoriented metrics are reported but never gate.

    Histogram payloads gate too: every ``group_histograms`` entry the aggregates
    share is compared by :func:`ks_distance` (e.g. the per-group in-degree
    distributions — the paper's randomness evidence). Non-zero distances are
    reported; distances beyond ``ks_tolerance``, and histograms that disappeared
    from NEW, count as regressions.

    Diffing an aggregate against itself reports nothing and never regresses — CI
    exercises exactly that invariant via the committed baseline.
    """
    old_groups = old.get("groups", {})
    new_groups = new.get("groups", {})
    diff = AggregateDiff(tolerance=tolerance, ks_tolerance=ks_tolerance)
    diff.missing_groups = sorted(set(old_groups) - set(new_groups))
    diff.added_groups = sorted(set(new_groups) - set(old_groups))

    for group in sorted(set(old_groups) & set(new_groups)):
        old_metrics = old_groups[group]
        new_metrics = new_groups[group]
        diff.missing_metrics.extend(
            f"{group}/{metric}" for metric in sorted(set(old_metrics) - set(new_metrics))
        )
        for metric in sorted(set(old_metrics) & set(new_metrics)):
            old_mean = float(old_metrics[metric]["mean"])
            new_mean = float(new_metrics[metric]["mean"])
            delta = new_mean - old_mean
            scale = max(abs(old_mean), abs(new_mean))
            if abs(delta) <= 1e-9 or scale == 0.0 or abs(delta) <= tolerance * scale:
                continue
            diff.changes.append(
                MetricChange(
                    group=group,
                    metric=metric,
                    old_mean=old_mean,
                    new_mean=new_mean,
                    rel_change=delta / scale,
                )
            )

    old_histograms = old.get("group_histograms", {})
    new_histograms = new.get("group_histograms", {})
    for group in sorted(set(old_histograms) & set(new_histograms)):
        old_named = old_histograms[group]
        new_named = new_histograms[group]
        diff.missing_histograms.extend(
            f"{group}/{name}" for name in sorted(set(old_named) - set(new_named))
        )
        for name in sorted(set(old_named) & set(new_named)):
            distance = ks_distance(old_named[name], new_named[name])
            if distance <= 0.0:
                continue
            diff.histogram_changes.append(
                HistogramChange(
                    group=group,
                    name=name,
                    distance=distance,
                    old_samples=int(sum(old_named[name].values())),
                    new_samples=int(sum(new_named[name].values())),
                    gates=distance > ks_tolerance,
                )
            )
    diff.missing_histograms.extend(
        f"{group}/{name}"
        for group in sorted(set(old_histograms) - set(new_histograms))
        if group in new_groups  # a disappeared *group* is already reported above
        for name in sorted(old_histograms[group])
    )

    # Degraded cells (transient-fault retries exhausted) count as failed for gating:
    # either way the cell contributed no data to NEW that OLD had.
    old_failed = set(old.get("failed", [])) | set(old.get("degraded", {}))
    new_failed = set(new.get("failed", [])) | set(new.get("degraded", {}))
    diff.newly_failed_cells = sorted(new_failed - old_failed)
    diff.recovered_cells = sorted(old_failed - new_failed)
    return diff
