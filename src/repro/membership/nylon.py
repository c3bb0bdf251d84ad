"""Nylon: NAT-resilient gossip peer sampling via rendezvous chains (Kermarrec et al. [9]).

Nylon keeps a single partial view containing both public and private nodes. To shuffle
with a **private** partner, the initiator routes a hole-punch request along a chain of
rendezvous points (RVPs): every node remembers, for each descriptor in its view, which
neighbour it learned that descriptor from, and forwards the request to that neighbour.
The chain ends when it reaches a node that has an open NAT mapping to the target (or the
target itself); the target then punches a hole by sending a packet directly to the
initiator, after which the shuffle proceeds over the direct path.

Two properties the Croupier paper calls out are modelled explicitly:

* **Unbounded chains.** The RVP chain length is only limited by a loop-protection hop
  cap; under churn, broken links silently lose shuffle requests (making Nylon fragile —
  compare Figure 7(b)).
* **Keep-alives.** Private nodes refresh the NAT mappings towards the neighbours that
  act as their RVPs every round, which is a large share of Nylon's protocol overhead
  (Figure 7(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.membership.base import (
    NatStrategy,
    PeerSamplingService,
    PssConfig,
    ViewShuffleRequest,
)
from repro.membership.descriptor import NodeDescriptor
from repro.membership.plugin import register_protocol
from repro.nat.traversal import HolePunchPing, HolePunchRequest, KeepAlive, keepalives
from repro.net.address import NodeAddress
from repro.simulator.core import shuffle
from repro.simulator.host import Host
from repro.simulator.message import Message, Packet


@dataclass
class NylonConfig(PssConfig):
    """Nylon-specific knobs on top of the common PSS configuration.

    Attributes
    ----------
    max_rvp_hops:
        Loop-protection cap on the RVP chain length (the protocol itself does not bound
        the chain; this guard only prevents infinite forwarding on routing loops).
    keepalive_fanout:
        Upper bound on the RVP neighbours a private node refreshes per round. Nylon's
        RVP relationships are symmetric and unbounded ("two nodes become the RVP of
        each other whenever they exchange their views"), so private nodes end up
        refreshing most of the nodes they recently exchanged with — a major share of
        Nylon's protocol overhead in Figure 7(a).
    """

    max_rvp_hops: int = 16
    keepalive_fanout: int = 20


class Nylon(PeerSamplingService):
    """Single-view NAT-aware peer sampling using RVP chains and hole punching."""

    def __init__(self, host: Host, config: Optional[NylonConfig] = None) -> None:
        super().__init__(host, config or NylonConfig(), name="Nylon")
        self.config: NylonConfig = self.config  # type: ignore[assignment]
        #: node_id -> the neighbour we learned that node from (our RVP towards it).
        self.rvp_table: Dict[int, NodeAddress] = {}
        #: Nodes we have recently exchanged views with (we hold an open mapping to them).
        self._open_contacts: Dict[int, NodeAddress] = {}
        #: Shuffle subsets prepared while waiting for a hole-punch ping from the target.
        self._awaiting_punch: Dict[int, Tuple[NodeDescriptor, ...]] = {}
        self._keepalives = None  # keepalives(): built on the first send
        self.subscribe(HolePunchRequest, self._on_hole_punch_request)
        self.subscribe(HolePunchPing, self._on_hole_punch_ping)
        self.subscribe(KeepAlive, self._on_keepalive)

    # ------------------------------------------------------------------ round

    def on_round(self) -> None:
        self.view.increase_ages()
        self._send_keepalives()
        self._start_exchange()

    nat_strategy = NatStrategy.HOLE_PUNCH

    def _route(self, partner: NodeDescriptor, message: Message) -> None:
        """Send a request directly if we can, else hole-punch along the RVP chain."""
        if partner.is_public or partner.node_id in self._open_contacts:
            # Direct path available (public target, or a mapping we already hold open).
            self.send_to_node(partner.address, message)
            return

        # Private target with no open mapping: route a hole-punch request along the
        # RVP chain and send the shuffle once the target pings us directly. We also
        # send our own punch packet straight at the target: it is dropped by the
        # target's NAT, but it opens *our* NAT mapping towards the target, so the
        # target's reverse ping can get through (classic UDP hole punching).
        self._awaiting_punch[partner.node_id] = message.descriptors
        if self.address.is_private:
            self.send_to_node(partner.address, HolePunchPing(origin=self.address))
        rvp = self.rvp_table.get(partner.node_id)
        if rvp is None:
            # No known RVP towards the target: the shuffle is lost this round (exactly
            # the fragility the Croupier paper describes).
            self.stats.extra["shuffles_without_rvp"] = (
                self.stats.extra.get("shuffles_without_rvp", 0) + 1
            )
            return
        request = HolePunchRequest(
            initiator=self.address,
            target=partner.address,
            max_hops=self.config.max_rvp_hops,
        )
        self.send_to_node(rvp, request)

    def _send_keepalives(self) -> None:
        """Private nodes refresh NAT mappings towards a bounded set of RVP neighbours."""
        address = self.address
        if address.is_public:
            return
        targets = list(self._open_contacts.values())
        if not targets:
            targets = [d.address for d in self.view if d.is_public]
        shuffle(self.rng, targets)
        self._keepalives = pair = keepalives(address, self._keepalives)
        for target in targets[: self.config.keepalive_fanout]:
            self.send_to_node(target, pair[0])

    # ------------------------------------------------------------------ relaying / punching

    def _on_hole_punch_request(self, packet: Packet) -> None:
        message = packet.message
        assert isinstance(message, HolePunchRequest)
        if message.target.node_id == self.address.node_id:
            # We are the target: punch a hole towards the initiator and let it know it
            # can now reach us directly.
            self._open_contacts[message.initiator.node_id] = message.initiator
            self.send_to_node(message.initiator, HolePunchPing(origin=self.address))
            return
        if message.exceeded_hop_limit:
            self.stats.extra["relay_hop_limit_drops"] = (
                self.stats.extra.get("relay_hop_limit_drops", 0) + 1
            )
            return
        forwarded = message.forwarded()
        self.stats.extra["relayed_punch_requests"] = (
            self.stats.extra.get("relayed_punch_requests", 0) + 1
        )
        if message.target.node_id in self._open_contacts or message.target.is_public:
            # We hold an open mapping towards the target (it contacted us recently with
            # a shuffle or keep-alive), or the target is public: last hop of the chain.
            self.send_to_node(message.target, forwarded)
            return
        next_hop = self.rvp_table.get(message.target.node_id)
        if next_hop is None or next_hop.node_id == self.address.node_id:
            self.stats.extra["relay_dead_ends"] = (
                self.stats.extra.get("relay_dead_ends", 0) + 1
            )
            return
        self.send_to_node(next_hop, forwarded)

    def _on_hole_punch_ping(self, packet: Packet) -> None:
        message = packet.message
        assert isinstance(message, HolePunchPing)
        self._open_contacts[message.origin.node_id] = message.origin
        subset = self._awaiting_punch.pop(message.origin.node_id, None)
        if subset is None:
            return
        # The target opened its NAT towards us; reply to the endpoint the ping came
        # from, which traverses the freshly punched mapping.
        self.send(
            packet.source,
            ViewShuffleRequest(sender=self.self_descriptor(), descriptors=subset),
        )

    def _on_keepalive(self, packet: Packet) -> None:
        message = packet.message
        assert isinstance(message, KeepAlive)
        # Receiving a keep-alive means the sender holds a mapping towards us; remember
        # it so future shuffles towards that (private) node can go direct, and
        # acknowledge so the sender knows its RVP is still alive.
        self._open_contacts[message.origin.node_id] = message.origin
        self._keepalives = pair = keepalives(self.address, self._keepalives)
        self.send(packet.source, pair[1])

    # ------------------------------------------------------------------ shuffle handlers

    def _on_request(self, packet: Packet) -> None:
        self._learn_from(packet.message)
        super()._on_request(packet)

    def _on_response(self, packet: Packet) -> None:
        self._learn_from(packet.message)
        super()._on_response(packet)

    def _learn_from(self, message: Message) -> None:
        """Before either merge: the sender is an RVP towards everything it sent, and a
        node we hold an open mapping to."""
        self._learn_rvps(message.descriptors, learned_from=message.sender.address)
        self._open_contacts[message.sender.node_id] = message.sender.address

    def _learn_rvps(
        self, descriptors: Sequence[NodeDescriptor], learned_from: NodeAddress
    ) -> None:
        """Remember which neighbour told us about each descriptor (our RVP towards it)."""
        skip = (self.address.node_id, learned_from.node_id)
        for descriptor in descriptors:
            if descriptor.node_id in skip:
                continue
            self.rvp_table[descriptor.node_id] = learned_from
        # Bound the routing table: drop entries for nodes that long left every view.
        if len(self.rvp_table) > 8 * self.config.view_size:
            in_view = set(self.view.node_ids())
            self.rvp_table = {
                nid: addr
                for nid, addr in self.rvp_table.items()
                if nid in in_view or nid in self._awaiting_punch
            }


register_protocol(
    "nylon",
    Nylon,
    NylonConfig,
    description="rendezvous-chain routing: shuffles to private nodes are hole-punched "
    "via the neighbour each descriptor was learned from (unbounded chains)",
)
