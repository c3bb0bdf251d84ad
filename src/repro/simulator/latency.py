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
    30 ms, 99th percentile of several hundred ms, and symmetric values. Latencies are
    memoised per pair, so repeated sends between the same nodes see a stable link.
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
        self._coords: Dict[int, Tuple[float, float]] = {}
        self._access: Dict[int, float] = {}
        self._cache: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------ internals

    def _node_rng(self, node_id: int) -> random.Random:
        return random.Random(_pair_seed(self.seed, node_id, node_id, symmetric=False))

    def _coord(self, node_id: int) -> Tuple[float, float]:
        coord = self._coords.get(node_id)
        if coord is None:
            rng = self._node_rng(node_id)
            coord = (rng.uniform(0.0, self.plane_size), rng.uniform(0.0, self.plane_size))
            self._coords[node_id] = coord
        return coord

    def _access_delay(self, node_id: int) -> float:
        delay = self._access.get(node_id)
        if delay is None:
            rng = self._node_rng(node_id)
            rng.random()  # decorrelate from the coordinate draws
            delay = rng.lognormvariate(math.log(self.access_median_ms), self.access_sigma)
            self._access[node_id] = delay
        return delay

    # ------------------------------------------------------------------ API

    def latency(self, src_id: int, dst_id: int) -> float:
        key = (src_id, dst_id) if src_id <= dst_id else (dst_id, src_id)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        ax, ay = self._coord(key[0])
        bx, by = self._coord(key[1])
        distance = math.hypot(ax - bx, ay - by)
        value = (
            self.BASE_DELAY_MS
            + distance
            + self._access_delay(key[0])
            + self._access_delay(key[1])
        )
        self._cache[key] = value
        return value


def _pair_seed(seed: int, a: int, b: int, symmetric: bool) -> int:
    """Derive a deterministic seed for a node pair, independent of Python hash salting."""
    if symmetric and a > b:
        a, b = b, a
    digest = hashlib.sha256(f"{seed}:{a}:{b}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
