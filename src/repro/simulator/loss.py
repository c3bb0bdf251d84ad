"""Message-loss models for the simulated network.

The estimation algorithm in the paper assumes "no bias in message loss between public
and private nodes" (Section VI); :class:`BernoulliLoss` honours that assumption by
applying the same probability to every packet.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import ConfigurationError
from repro.net.address import NodeAddress


class LossModel:
    """Decides whether a packet is silently dropped in transit."""

    def should_drop(
        self,
        rng: random.Random,
        sender: Optional[NodeAddress],
        receiver_endpoint_ip: str,
    ) -> bool:
        raise NotImplementedError


class NoLoss(LossModel):
    """Never drop a packet. The default for the paper's experiments."""

    def should_drop(
        self,
        rng: random.Random,
        sender: Optional[NodeAddress],
        receiver_endpoint_ip: str,
    ) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Drop every packet independently with probability ``probability``."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(f"loss probability out of range: {probability}")
        self.probability = probability

    def should_drop(
        self,
        rng: random.Random,
        sender: Optional[NodeAddress],
        receiver_endpoint_ip: str,
    ) -> bool:
        return rng.random() < self.probability
