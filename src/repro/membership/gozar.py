"""Gozar: NAT-friendly peer sampling with one-hop distributed relaying (Payberah et al. [10]).

Gozar keeps a single partial view. Every **private** node maintains a small redundant set
of public *parents* that relay traffic to it: the private node registers with each parent
and refreshes the registration (and the NAT mapping towards the parent) with periodic
keep-alives. The addresses of a private node's parents are cached inside its node
descriptor, so any node that wants to shuffle with it can pick one of the parents from
the descriptor and send the request through that single relay hop — no chains, unlike
Nylon, but descriptors are bigger and every relayed shuffle costs an extra transmission,
which is why Gozar's overhead sits between Croupier's and Nylon's in Figure 7(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.membership.base import NatStrategy, PeerSamplingService, PssConfig
from repro.membership.descriptor import NodeDescriptor
from repro.membership.plugin import register_protocol
from repro.nat.traversal import (
    KeepAlive,
    KeepAliveAck,
    RelayEnvelope,
    RelayRegistration,
    RelayRegistrationAck,
    keepalives,
)
from repro.net.address import NodeAddress
from repro.simulator.core import shuffle
from repro.simulator.host import Host
from repro.simulator.message import Message, Packet


@dataclass
class GozarConfig(PssConfig):
    """Gozar-specific knobs.

    Attributes
    ----------
    parent_count:
        How many public parents each private node tries to maintain (redundancy against
        parent churn; the Gozar paper uses a small constant — 3 keeps descriptors at a
        realistic size).
    parent_keepalive_every_rounds:
        How often (in rounds) a private node refreshes each parent registration.
    parent_timeout_rounds:
        A parent that has not acknowledged a keep-alive for this many rounds is dropped
        and replaced.
    """

    parent_count: int = 3
    parent_keepalive_every_rounds: int = 5
    parent_timeout_rounds: int = 20


class Gozar(PeerSamplingService):
    """Single-view NAT-aware peer sampling using one-hop relaying via parents."""

    def __init__(self, host: Host, config: Optional[GozarConfig] = None) -> None:
        super().__init__(host, config or GozarConfig(), name="Gozar")
        self.config: GozarConfig = self.config  # type: ignore[assignment]
        #: Private-node side: parent address -> round of the last acknowledgement.
        self._parents: Dict[int, NodeAddress] = {}
        self._parent_last_ack: Dict[int, int] = {}
        #: Public-node side: the private children registered with us.
        self._children: Dict[int, NodeAddress] = {}
        self._keepalives = None  # keepalives(): built on the first send
        self.subscribe(RelayEnvelope, self._on_relay)
        self.subscribe(RelayRegistration, self._on_registration)
        self.subscribe(RelayRegistrationAck, self._on_registration_ack)
        self.subscribe(KeepAlive, self._on_keepalive)
        self.subscribe(KeepAliveAck, self._on_keepalive_ack)

    # ------------------------------------------------------------------ parents (private side)

    def parent_addresses(self) -> Tuple[NodeAddress, ...]:
        """The current parent set (empty for public nodes)."""
        return tuple(self._parents.values())

    def _maintain_parents(self) -> None:
        if self.address.is_public:
            return
        # Drop parents that stopped acknowledging keep-alives.
        expired = [
            node_id
            for node_id, last_ack in self._parent_last_ack.items()
            if self.current_round - last_ack > self.config.parent_timeout_rounds
        ]
        for node_id in expired:
            self._parents.pop(node_id, None)
            self._parent_last_ack.pop(node_id, None)
        # Recruit new parents from the public descriptors in the view.
        if len(self._parents) < self.config.parent_count:
            candidates = [
                d.address
                for d in self.view
                if d.is_public and d.node_id not in self._parents
            ]
            shuffle(self.rng, candidates)
            needed = self.config.parent_count - len(self._parents)
            for address in candidates[:needed]:
                self.send_to_node(address, RelayRegistration(origin=self.address))
        # Refresh the registrations (and NAT mappings) of current parents.
        if self.current_round % self.config.parent_keepalive_every_rounds == 0:
            self._keepalives = pair = keepalives(self.address, self._keepalives)
            for address in self._parents.values():
                self.send_to_node(address, pair[0])

    # ------------------------------------------------------------------ round

    def on_round(self) -> None:
        self.view.increase_ages()
        self._maintain_parents()
        self._start_exchange()

    # ------------------------------------------------------------------ hooks

    def _own_descriptor(self) -> NodeDescriptor:
        """A private node's descriptor carries its parents, the way to reach it."""
        descriptor = self.self_descriptor()
        if self.address.is_private:
            descriptor = descriptor.with_parents(self.parent_addresses())
        return descriptor

    nat_strategy = NatStrategy.RELAY

    def _route(self, partner: NodeDescriptor, message: Message) -> None:
        """Send directly to public partners, via one of their parents to private ones."""
        if partner.is_public:
            self.send_to_node(partner.address, message)
            return
        if not partner.parents:
            # A private partner whose descriptor carries no (live) parent is
            # unreachable: the shuffle is simply lost this round.
            self.stats.extra["shuffles_without_parent"] = (
                self.stats.extra.get("shuffles_without_parent", 0) + 1
            )
            return
        relay = self.rng.choice(list(partner.parents))
        envelope = RelayEnvelope(
            target=partner.address, initiator=self.address, payload=message
        )
        self.send_to_node(relay, envelope)

    def _reply(self, packet: Packet, request: Message, response: Message) -> None:
        # The request either came directly from the initiator or was relayed by one of
        # our parents; routing to the initiator's descriptor (possibly via one of *its*
        # parents) covers both cases.
        self._route(request.sender, response)

    # ------------------------------------------------------------------ relay / registration

    def _on_relay(self, packet: Packet) -> None:
        """Relay handling: forward to a registered child, or unwrap if we are the target."""
        message = packet.message
        assert isinstance(message, RelayEnvelope)
        if message.target.node_id == self.address.node_id:
            # We are the final recipient: unwrap the payload and process it as if it
            # had arrived directly (the source endpoint is the relay's, which is where
            # a direct reply would have to go anyway if the initiator were unreachable;
            # replies are routed from the descriptor instead, so this is only metadata).
            inner = Packet(
                source=packet.source,
                destination=packet.destination,
                message=message.payload,
                sender=packet.sender,
                sent_at=packet.sent_at,
            )
            self.handle_packet(inner)
            return
        child = self._children.get(message.target.node_id)
        if child is None:
            self.stats.extra["relay_unknown_child"] = (
                self.stats.extra.get("relay_unknown_child", 0) + 1
            )
            return
        self.stats.extra["relayed_messages"] = (
            self.stats.extra.get("relayed_messages", 0) + 1
        )
        # The child keep-alives us, so its NAT holds a mapping towards our endpoint and
        # this direct send of the envelope gets through.
        self.send_to_node(child, message)

    def _on_registration(self, packet: Packet) -> None:
        message = packet.message
        assert isinstance(message, RelayRegistration)
        if not self.address.is_public:
            return
        self._children[message.origin.node_id] = message.origin
        self.send(packet.source, RelayRegistrationAck(origin=self.address, accepted=True))

    def _on_registration_ack(self, packet: Packet) -> None:
        message = packet.message
        assert isinstance(message, RelayRegistrationAck)
        if not message.accepted:
            return
        self._parents[message.origin.node_id] = message.origin
        self._parent_last_ack[message.origin.node_id] = self.current_round

    def _on_keepalive(self, packet: Packet) -> None:
        message = packet.message
        assert isinstance(message, KeepAlive)
        if message.origin.node_id in self._children:
            self._children[message.origin.node_id] = message.origin
            self._keepalives = pair = keepalives(self.address, self._keepalives)
            self.send(packet.source, pair[1])

    def _on_keepalive_ack(self, packet: Packet) -> None:
        message = packet.message
        assert isinstance(message, KeepAliveAck)
        if message.origin.node_id in self._parents:
            self._parent_last_ack[message.origin.node_id] = self.current_round

    # ------------------------------------------------------------------ introspection


register_protocol(
    "gozar",
    Gozar,
    GozarConfig,
    description="one-hop distributed relaying: private nodes cache public relay "
    "parents in their descriptors, shuffles to them go through one relay hop",
)
