"""Messages of the NAT-type identification protocol (Algorithm 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro import wire
from repro.net.address import Endpoint, NodeAddress
from repro.simulator.message import Message


@dataclass
class MatchingIpTest(Message):
    """Client → first public node.

    Carries the client's request identifier and the list of public nodes the bootstrap
    server returned to the client, so the first public node can pick a *different*
    public node for the forward test (Algorithm 1, line 28).
    """

    request_id: int
    client: NodeAddress
    bootstrap_nodes: Tuple[NodeAddress, ...] = field(default_factory=tuple)

    def payload_size(self) -> int:
        return wire.nat_test(0, 1 + len(self.bootstrap_nodes))


@dataclass
class ForwardTest(Message):
    """First public node → second public node.

    ``observed_client`` is the source endpoint the first public node saw on the
    MatchingIpTest packet — i.e. the client's address *as the Internet sees it*.
    """

    request_id: int
    observed_client: Endpoint
    client: NodeAddress

    def payload_size(self) -> int:
        return wire.nat_test(1, 1)


@dataclass
class ForwardResp(Message):
    """Second public node → client (at its observed address).

    Carries the observed client IP so the client can compare it against its local IP
    (Algorithm 1, lines 18–25).
    """

    request_id: int
    observed_client: Endpoint

    def payload_size(self) -> int:
        return wire.nat_test(1, 0)
