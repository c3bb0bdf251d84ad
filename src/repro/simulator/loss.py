"""Message-loss models for the simulated network.

The estimation algorithm in the paper assumes "no bias in message loss between public
and private nodes" (Section VI). The loss models here let experiments both honour that
assumption (:class:`BernoulliLoss` applies the same probability everywhere) and break
it deliberately (:class:`BiasedLoss`) to study the estimator's sensitivity. No
experiment or ablation uses :class:`BiasedLoss` yet; only its unit tests run it.
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

    def describe(self) -> str:
        return type(self).__name__


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

    def describe(self) -> str:
        return f"BernoulliLoss(p={self.probability})"


class BiasedLoss(LossModel):
    """Different loss probability for packets originating at private vs. public nodes.

    Used by the ablation experiments to violate the estimator's third assumption and
    measure the resulting estimation bias.
    """

    def __init__(self, public_probability: float, private_probability: float) -> None:
        for name, value in (
            ("public_probability", public_probability),
            ("private_probability", private_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} out of range: {value}")
        self.public_probability = public_probability
        self.private_probability = private_probability

    def should_drop(
        self,
        rng: random.Random,
        sender: Optional[NodeAddress],
        receiver_endpoint_ip: str,
    ) -> bool:
        if sender is not None and sender.is_private:
            return rng.random() < self.private_probability
        return rng.random() < self.public_probability

    def describe(self) -> str:
        return (
            f"BiasedLoss(public={self.public_probability}, "
            f"private={self.private_probability})"
        )
