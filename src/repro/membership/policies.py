"""Named node-selection policies.

The gossip peer-sampling design space (Jelasity et al. [7]) is spanned by the choice of
*node selection* (which neighbour to shuffle with), *view exchange* (push vs. push-pull)
and *view merging* (how to combine the received descriptors with the local view). The
paper fixes **tail** selection, **push-pull** exchange and **swapper** merging for every
protocol it compares, "for a cleaner comparison". Exchange and merge are fixed in the
shared shuffle (:class:`~repro.membership.base.PeerSamplingService`); selection is the
one knob, which every protocol honours, so ablation A4 can deviate from the paper's
choice explicitly.
"""

from __future__ import annotations

import enum
import random
from typing import Optional

from repro.membership.descriptor import NodeDescriptor
from repro.membership.view import PartialView


class SelectionPolicy(enum.Enum):
    """Which neighbour a node picks to shuffle with."""

    TAIL = "tail"      #: the oldest descriptor (the paper's choice)
    RANDOM = "random"  #: a uniformly random descriptor


def select_partner(
    view: PartialView,
    policy: SelectionPolicy,
    rng: random.Random,
) -> Optional[NodeDescriptor]:
    """Pick the shuffle partner from ``view`` according to ``policy``."""
    if policy is SelectionPolicy.TAIL:
        return view.oldest(rng)
    return view.random_descriptor(rng)
