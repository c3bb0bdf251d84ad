"""Croupier's two protocol messages: the shuffle request and the shuffle response.

Both carry the same kind of payload (Algorithm 2): a bounded random subset of the
sender's public view, a bounded random subset of its private view, a bounded subset of
the ratio estimates it has cached from public nodes, and — if the sender is itself a
public node — its own local estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro import wire
from repro.core.estimator import RatioEstimate
from repro.membership.descriptor import NodeDescriptor, parent_count
from repro.simulator.message import Message


@dataclass
class _CroupierShuffle(Message):
    sender: NodeDescriptor
    public_descriptors: Tuple[NodeDescriptor, ...] = field(default_factory=tuple)
    private_descriptors: Tuple[NodeDescriptor, ...] = field(default_factory=tuple)
    estimates: Tuple[RatioEstimate, ...] = field(default_factory=tuple)
    sender_estimate: Optional[RatioEstimate] = None

    def payload_size(self) -> int:
        descriptors = (self.sender, *self.public_descriptors, *self.private_descriptors)
        estimates = len(self.estimates) + (self.sender_estimate is not None)
        return wire.shuffle(len(descriptors), parent_count(descriptors), estimates)


@dataclass
class ShuffleRequest(_CroupierShuffle):
    """Sent once per round by every node (public or private) to a public node."""


@dataclass
class ShuffleResponse(_CroupierShuffle):
    """Sent by the public node (croupier) that handled a :class:`ShuffleRequest`."""
