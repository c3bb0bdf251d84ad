"""Pairwise network latency models.

The paper models inter-node latency using the King data set of measured Internet
latencies [16]. The original matrix is not redistributable here, so
:class:`KingLatencyModel` synthesises a latency space with the same qualitative shape:
a median one-way delay of a few tens of milliseconds, a long right tail up to several
hundred milliseconds, per-node access-link delay, and symmetric pairwise values. This
assumes the protocol results depend on the distribution shape rather than on the exact
matrix; nothing here is checked against the real King data.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Tuple

from repro.errors import ConfigurationError


class LatencyModel:
    """Base class: maps an ordered node pair to a one-way latency in milliseconds."""

    def latency(self, src_id: int, dst_id: int) -> float:
        """One-way latency from ``src_id`` to ``dst_id`` in milliseconds."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every packet takes exactly ``delay_ms`` to arrive. Useful in unit tests."""

    def __init__(self, delay_ms: float = 50.0) -> None:
        if delay_ms < 0:
            raise ConfigurationError(f"latency must be non-negative, got {delay_ms}")
        self.delay_ms = delay_ms

    def latency(self, src_id: int, dst_id: int) -> float:
        return self.delay_ms


class UniformLatency(LatencyModel):
    """Latency drawn uniformly (and deterministically) per ordered node pair."""

    def __init__(self, low_ms: float = 10.0, high_ms: float = 150.0, seed: int = 0) -> None:
        if low_ms < 0 or high_ms < low_ms:
            raise ConfigurationError(
                f"invalid latency range: [{low_ms}, {high_ms}]"
            )
        self.low_ms = low_ms
        self.high_ms = high_ms
        self.seed = seed

    def latency(self, src_id: int, dst_id: int) -> float:
        rng = random.Random(_pair_seed(self.seed, src_id, dst_id, symmetric=True))
        return rng.uniform(self.low_ms, self.high_ms)


class KingLatencyModel(LatencyModel):
    """Synthetic Internet-like latency inspired by the King measurements.

    Every node is embedded deterministically in a two-dimensional virtual coordinate
    space (a crude but standard model of geographic spread) and given an access-link
    delay drawn from a log-normal distribution. The one-way latency between two nodes
    is::

        latency = base + distance(coord_a, coord_b) * scale + access_a + access_b

    Calibration targets (matching the published King statistics at the fidelity the
    experiments need): median one-way delay around 75–90 ms, 10th percentile around
    30 ms, 99th percentile of several hundred ms, and symmetric values. Each node's
    ``(x, y, access)`` record is drawn once, on its first packet, and a pair is priced
    from the two records on every call, so the model holds one record per node, not
    one value per pair ever priced, and repeated sends between the same nodes see a
    stable link.
    """

    #: Minimum propagation + processing delay applied to every packet.
    BASE_DELAY_MS = 5.0

    def __init__(
        self,
        seed: int = 0,
        plane_size: float = 120.0,
        access_median_ms: float = 12.0,
        access_sigma: float = 0.8,
    ) -> None:
        self.seed = seed
        self.plane_size = plane_size
        self.access_median_ms = access_median_ms
        self.access_sigma = access_sigma
        self._nodes: Dict[int, Tuple[float, float, float]] = {}

    # ------------------------------------------------------------------ internals

    def _record(self, node_id: int) -> Tuple[float, float, float]:
        """Draw and keep ``node_id``'s coordinates and access-link delay."""
        seed = _pair_seed(self.seed, node_id, node_id, symmetric=False)
        rng = random.Random(seed)
        x = rng.uniform(0.0, self.plane_size)
        y = rng.uniform(0.0, self.plane_size)
        rng.seed(seed)
        # Meant to decorrelate the delay from the coordinates, but they take two
        # draws, so the delay's first uniform is y's (ROADMAP item 29).
        rng.random()
        access = rng.lognormvariate(math.log(self.access_median_ms), self.access_sigma)
        record = self._nodes[node_id] = (x, y, access)
        return record

    # ------------------------------------------------------------------ API

    def latency(self, src_id: int, dst_id: int) -> float:
        if src_id > dst_id:
            src_id, dst_id = dst_id, src_id
        nodes = self._nodes
        ax, ay, a_access = nodes.get(src_id) or self._record(src_id)
        bx, by, b_access = nodes.get(dst_id) or self._record(dst_id)
        return self.BASE_DELAY_MS + math.hypot(ax - bx, ay - by) + a_access + b_access


def _pair_seed(seed: int, a: int, b: int, symmetric: bool) -> int:
    """Derive a deterministic seed for a node pair, independent of Python hash salting."""
    if symmetric and a > b:
        a, b = b, a
    digest = hashlib.sha256(f"{seed}:{a}:{b}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
