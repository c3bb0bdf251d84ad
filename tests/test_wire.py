"""The wire layout, pinned as one literal byte size per message type.

Each row builds one message of a kind the protocols send and states the size of
its datagram (IPv4 + UDP header included) as a number, not as a sum of named
constants, so a change to any part of the layout — address, descriptor, parent
list, estimate, relay envelope, control packet — fails exactly the rows it
moves. The sizes are the ones the object engine has always counted; the columnar
engine counts the same kinds through the same model (``repro.wire``).
"""

import pytest

from repro.core.estimator import RatioEstimate
from repro.core.messages import ShuffleRequest, ShuffleResponse
from repro.membership.base import ViewShuffleRequest, ViewShuffleResponse
from repro.membership.descriptor import NodeDescriptor
from repro.nat.traversal import (
    HolePunchPing,
    HolePunchRequest,
    KeepAlive,
    KeepAliveAck,
    RelayEnvelope,
    RelayRegistration,
    RelayRegistrationAck,
)
from repro.natid.messages import ForwardResp, ForwardTest, MatchingIpTest
from repro.net.address import Endpoint, NatType, NodeAddress
from repro.simulator.message import Message

PUB = [NodeAddress(i, Endpoint(f"1.0.0.{i}", 7000), NatType.PUBLIC) for i in (1, 2, 3, 4)]
PRIV = NodeAddress(9, Endpoint("5.0.0.9", 40001), NatType.PRIVATE)
PRIV2 = NodeAddress(10, Endpoint("5.0.0.10", 40001), NatType.PRIVATE)
D_PUB = [NodeDescriptor(address, age=3) for address in PUB]
#: A Gozar private node's descriptor: it carries two relay parents.
D_PRIV = NodeDescriptor(PRIV, age=0, parents=(PUB[0], PUB[1]))
D_PRIV2 = NodeDescriptor(PRIV2, age=5)
ESTIMATES = (RatioEstimate(1, 0.2), RatioEstimate(2, 0.3))
CROUPIER_REQUEST = ShuffleRequest(
    sender=D_PUB[0], public_descriptors=(D_PUB[1],), private_descriptors=(),
    estimates=ESTIMATES, sender_estimate=RatioEstimate(1, 0.25),
)

#: (message, datagram bytes).
TABLE = {
    # sender 12 + 22 of parents, then an entry and the sender again
    ViewShuffleRequest: (ViewShuffleRequest(sender=D_PRIV, descriptors=(D_PUB[1], D_PRIV)), 108),
    ViewShuffleResponse: (ViewShuffleResponse(sender=D_PUB[0], descriptors=tuple(D_PUB[1:])), 76),
    # sender, one public entry, two cached estimates and the sender's own
    ShuffleRequest: (CROUPIER_REQUEST, 67),
    ShuffleResponse: (ShuffleResponse(
        sender=D_PRIV2, public_descriptors=(D_PUB[0], D_PUB[1]),
        private_descriptors=(D_PRIV2,), estimates=ESTIMATES[:1]), 81),
    RelayEnvelope: (RelayEnvelope(target=PRIV, initiator=PUB[0], payload=CROUPIER_REQUEST), 90),
    HolePunchRequest: (HolePunchRequest(initiator=PUB[0], target=PRIV), 52),
    HolePunchPing: (HolePunchPing(origin=PRIV), 39),
    KeepAlive: (KeepAlive(origin=PRIV), 39),
    KeepAliveAck: (KeepAliveAck(origin=PUB[0]), 39),
    RelayRegistration: (RelayRegistration(origin=PRIV), 40),
    RelayRegistrationAck: (RelayRegistrationAck(origin=PUB[0]), 40),
    MatchingIpTest: (MatchingIpTest(request_id=7, client=PRIV, bootstrap_nodes=tuple(PUB[:2])), 65),
    ForwardTest: (ForwardTest(request_id=7, observed_client=PRIV.endpoint, client=PRIV), 49),
    ForwardResp: (ForwardResp(request_id=7, observed_client=PRIV.endpoint), 38),
}


@pytest.mark.parametrize("kind", list(TABLE), ids=lambda kind: kind.__name__)
def test_wire_size(kind):
    message, size = TABLE[kind]
    assert type(message) is kind
    assert message.wire_size == size


def test_every_message_type_has_a_row():
    """A new message type in ``src/`` gets a row here before anything counts it."""
    found, stack = set(), [Message]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.") and not sub.__name__.startswith("_"):
                found.add(sub)
    assert found == set(TABLE)
