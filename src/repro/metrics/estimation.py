"""Estimation-error metrics (Section VII-B of the paper, equations 10–13).

The paper reports two error metrics per experiment:

* the **average estimation error** — the mean over all nodes of the difference between
  the true ratio ω and the node's estimate (equations 12–13);
* the **maximum estimation error** — the largest such difference over all nodes
  (equations 10–11, a Kolmogorov–Smirnov-style worst case).

Both are plotted on log axes in the paper, i.e. as magnitudes; this module therefore
uses absolute differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence


def average_error(true_ratio: float, estimates: Iterable[Optional[float]]) -> Optional[float]:
    """Mean absolute deviation of the given estimates from the true ratio.

    ``None`` estimates (nodes with no information yet) are skipped, mirroring the
    paper's rule of excluding nodes until they have executed two rounds.
    """
    deviations = [abs(true_ratio - e) for e in estimates if e is not None]
    if not deviations:
        return None
    return sum(deviations) / len(deviations)


def max_error(true_ratio: float, estimates: Iterable[Optional[float]]) -> Optional[float]:
    """Largest absolute deviation of any node's estimate from the true ratio."""
    deviations = [abs(true_ratio - e) for e in estimates if e is not None]
    if not deviations:
        return None
    return max(deviations)


@dataclass
class EstimationErrorSample:
    """One measurement instant: the true ratio plus the error statistics across nodes."""

    time_ms: float
    true_ratio: float
    avg_error: Optional[float]
    max_error: Optional[float]
    nodes_measured: int


@dataclass
class EstimationErrorSeries:
    """The full error trajectory of one experiment configuration (one plotted line)."""

    name: str
    samples: List[EstimationErrorSample] = field(default_factory=list)

    def record(
        self,
        time_ms: float,
        true_ratio: float,
        estimates: Sequence[Optional[float]],
    ) -> EstimationErrorSample:
        known = [e for e in estimates if e is not None]
        sample = EstimationErrorSample(
            time_ms=time_ms,
            true_ratio=true_ratio,
            avg_error=average_error(true_ratio, known),
            max_error=max_error(true_ratio, known),
            nodes_measured=len(known),
        )
        self.samples.append(sample)
        return sample

    # ------------------------------------------------------------------ summaries

    def __len__(self) -> int:
        return len(self.samples)

    def avg_error_series(self) -> List[float]:
        return [s.avg_error for s in self.samples if s.avg_error is not None]

    def max_error_series(self) -> List[float]:
        return [s.max_error for s in self.samples if s.max_error is not None]

    def final_avg_error(self, tail: int = 10) -> Optional[float]:
        """Mean of the last ``tail`` average-error samples (the converged value)."""
        series = self.avg_error_series()
        if not series:
            return None
        window = series[-tail:]
        return sum(window) / len(window)

    def final_max_error(self, tail: int = 10) -> Optional[float]:
        series = self.max_error_series()
        if not series:
            return None
        window = series[-tail:]
        return sum(window) / len(window)
