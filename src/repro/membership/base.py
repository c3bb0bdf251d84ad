"""The peer-sampling service every protocol in this package is built on.

A peer-sampling service (PSS) runs periodic gossip rounds and, at any time, can be asked
for a sample of live nodes drawn (ideally) uniformly at random from the whole system.

Croupier, Cyclon, Gozar and Nylon all run one push-pull shuffle, and this class owns
it: the view, the table of outstanding requests and the exchange itself.

1. :meth:`PeerSamplingService._start_exchange` picks a partner by the configured
   :class:`~repro.membership.policies.SelectionPolicy`, removes it from the view, pushes
   it a random subset that includes this node, records what was pushed and routes the
   request;
2. the partner replies with a random subset of its own view and swapper-merges;
3. the initiator pops what it pushed and swapper-merges the reply.

The protocols differ only in their hooks: how a message reaches a node (``_route``,
``_reply``), which descriptor describes this node (``_own_descriptor``) and, for
Croupier, what else rides along (``_push``, ``_pull``, ``_merge``, ``_response``). Each
protocol writes its own ``on_round`` — per-round maintenance, then
``self._start_exchange()`` — and declares how it reaches private peers as its
:class:`NatStrategy`, the one fact the paper's comparison is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import wire
from repro.constants import (
    DEFAULT_ROUND_MS,
    DEFAULT_SHUFFLE_SIZE,
    DEFAULT_VIEW_SIZE,
    PSS_PORT,
)
from repro.errors import ConfigurationError
from repro.membership.descriptor import NodeDescriptor, parent_count
from repro.membership.policies import SelectionPolicy, select_partner
from repro.membership.view import PartialView
from repro.net.address import NodeAddress
from repro.simulator.component import Component
from repro.simulator.host import Host
from repro.simulator.message import Message, Packet


class NatStrategy(Enum):
    """How a peer-sampling protocol reaches nodes behind NATs.

    One value per point of the paper's taxonomy: NAT-oblivious (Cyclon, the
    true-randomness baseline the paper runs over public nodes only), relaying through
    public parents (Gozar), hole punching via rendezvous nodes (Nylon), and Croupier's
    indirection — shuffle only with public nodes, which carry private descriptors and
    ratio estimates on everyone's behalf.
    """

    NONE = "none"
    RELAY = "relay"
    HOLE_PUNCH = "hole-punching"
    CROUPIER = "croupier-indirection"


@dataclass
class PssConfig:
    """Configuration shared by every peer-sampling protocol.

    The defaults are the paper's experimental setup (Section VII-A): view size 10,
    shuffle subset size 5, one-second rounds, tail selection and swapper merging.
    """

    view_size: int = DEFAULT_VIEW_SIZE
    shuffle_size: int = DEFAULT_SHUFFLE_SIZE
    round_ms: float = DEFAULT_ROUND_MS
    #: Uniform jitter added to each round period so nodes do not fire in lockstep
    #: ("subject to clock skew" in the paper's words).
    round_jitter_ms: float = 50.0
    #: Random delay before a node's first round, spreading joiners across the round.
    start_delay_max_ms: float = 1000.0
    selection: SelectionPolicy = SelectionPolicy.TAIL
    port: int = PSS_PORT

    def validate(self) -> None:
        if self.view_size <= 0:
            raise ConfigurationError(f"view_size must be positive, got {self.view_size}")
        if self.shuffle_size <= 0:
            raise ConfigurationError(
                f"shuffle_size must be positive, got {self.shuffle_size}"
            )
        if self.shuffle_size > self.view_size:
            raise ConfigurationError(
                f"shuffle_size ({self.shuffle_size}) cannot exceed view_size "
                f"({self.view_size})"
            )
        if self.round_ms <= 0:
            raise ConfigurationError(f"round_ms must be positive, got {self.round_ms}")
        if self.round_jitter_ms < 0 or self.start_delay_max_ms < 0:
            raise ConfigurationError("jitter and start delay must be non-negative")


@dataclass
class _ViewShuffle(Message):
    sender: NodeDescriptor
    descriptors: Tuple[NodeDescriptor, ...] = field(default_factory=tuple)

    def payload_size(self) -> int:
        descriptors = (self.sender, *self.descriptors)
        return wire.shuffle(len(descriptors), parent_count(descriptors))


@dataclass
class ViewShuffleRequest(_ViewShuffle):
    """Initiator → partner: a subset of the initiator's view, including itself (age 0)."""


@dataclass
class ViewShuffleResponse(_ViewShuffle):
    """Partner → initiator: a subset of the partner's view."""


@dataclass
class PssStatistics:
    """Counters every PSS maintains; read by tests and experiment reports."""

    rounds: int = 0
    shuffles_initiated: int = 0
    shuffle_requests_handled: int = 0
    shuffle_responses_received: int = 0
    rounds_skipped_empty_view: int = 0
    samples_served: int = 0
    extra: dict = field(default_factory=dict)


class PeerSamplingService(Component):
    """Base component for Croupier, Cyclon, Nylon and Gozar: the shared shuffle.

    Subclasses override the hooks, set :attr:`nat_strategy` beside the hook that
    implements it and register themselves as a
    :class:`~repro.membership.plugin.ProtocolPlugin`.
    """

    #: The request and response message types the shuffle travels in.
    shuffle_messages: Tuple[type, type] = (ViewShuffleRequest, ViewShuffleResponse)

    def __init__(
        self,
        host: Host,
        config: Optional[PssConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.config = config or PssConfig()
        self.config.validate()
        super().__init__(host, self.config.port, name=name)
        self.stats = PssStatistics()
        self.current_round = 0
        self._self_descriptor: Optional[NodeDescriptor] = None
        #: The view shuffle partners are picked from.
        self.view = PartialView(self.config.view_size)
        #: Partner id -> what this node pushed in its outstanding request to it.
        self._pending: Dict[int, Any] = {}
        request_type, response_type = self.shuffle_messages
        self.subscribe(request_type, self._on_request)
        self.subscribe(response_type, self._on_response)

    # ------------------------------------------------------------------ lifecycle

    def on_start(self) -> None:
        initial_delay = self.rng.uniform(0.0, self.config.start_delay_max_ms)
        self.schedule_periodic(
            self.config.round_ms,
            self._execute_round,
            jitter_ms=self.config.round_jitter_ms,
            initial_delay_ms=initial_delay,
        )

    def _execute_round(self) -> None:
        self.current_round += 1
        self.stats.rounds += 1
        self.on_round()

    def on_round(self) -> None:
        """One gossip round: the protocol's own maintenance, then
        :meth:`_start_exchange`. Every protocol defines it in its own class body."""
        raise NotImplementedError

    def initialize_view(self, seeds: Sequence[NodeAddress]) -> None:
        """Fill the initial view from bootstrap-provided addresses."""
        for address in seeds:
            if address.node_id == self.address.node_id:
                continue
            self.view.add(NodeDescriptor(address=address, age=0))

    # ------------------------------------------------------------------ the shuffle

    def _start_exchange(self) -> None:
        """Pick a partner, remove it, push it a subset and route the request."""
        partner = select_partner(self.view, self.config.selection, self.rng)
        if partner is None:
            self.stats.rounds_skipped_empty_view += 1
            return
        self.view.remove(partner.node_id)
        sent, request = self._push(partner.node_id)
        self._pending[partner.node_id] = sent
        self.stats.shuffles_initiated += 1
        self._route(partner, request)

    def _on_request(self, packet: Packet) -> None:
        """Reply with a random subset of the view, then swapper-merge the request."""
        message = packet.message
        self.stats.shuffle_requests_handled += 1
        reply = self._pull(message.sender.node_id)
        self._merge(reply, message)
        self._reply(packet, message, self._response(reply))

    def _on_response(self, packet: Packet) -> None:
        """Swapper-merge the reply against what the request pushed."""
        message = packet.message
        self.stats.shuffle_responses_received += 1
        self._merge(self._pending.pop(message.sender.node_id, ()), message)

    # ------------------------------------------------------------------ hooks

    def _own_descriptor(self) -> NodeDescriptor:
        """The descriptor this node puts in its own messages."""
        return self.self_descriptor()

    def _push(self, partner_id: int) -> Tuple[Any, Message]:
        """What a request carries: ``shuffle_size - 1`` random view entries plus this
        node. Returns the pending record and the request."""
        subset = self.view.random_subset(
            self.rng, self.config.shuffle_size - 1, exclude_ids=(partner_id,)
        )
        subset.append(self._own_descriptor())
        # Immutable descriptors: the pending record and the message share one tuple.
        sent = tuple(subset)
        return sent, ViewShuffleRequest(sender=self._own_descriptor(), descriptors=sent)

    def _pull(self, sender_id: int) -> Any:
        """What a response carries: ``shuffle_size`` random view entries."""
        return self.view.random_subset(
            self.rng, self.config.shuffle_size, exclude_ids=(sender_id,)
        )

    def _merge(self, sent: Any, message: Message) -> None:
        """The swapper merge: received entries evict the ones this node sent."""
        self.view.update_view(sent, message.descriptors, self.address.node_id)

    def _response(self, reply: Any) -> Message:
        """The response carrying ``reply``, built after the merge."""
        return ViewShuffleResponse(sender=self._own_descriptor(), descriptors=tuple(reply))

    #: How this protocol reaches private peers. A direct send is NAT-oblivious: a
    #: request to a node behind a NAT is filtered by its gateway.
    nat_strategy: NatStrategy = NatStrategy.NONE

    def _route(self, partner: NodeDescriptor, message: Message) -> None:
        """Deliver a message to ``partner`` (default: directly)."""
        self.send_to_node(partner.address, message)

    def _reply(self, packet: Packet, request: Message, response: Message) -> None:
        """Answer ``request`` (default: to the endpoint it arrived from, which for a
        requester behind a NAT is its external mapping — the path back through it)."""
        self.send(packet.source, response)

    # ------------------------------------------------------------------ sampling API

    def sample(self) -> Optional[NodeAddress]:
        """One node drawn (approximately) uniformly at random, or ``None`` if unknown."""
        self.stats.samples_served += 1
        descriptor = self.view.random_descriptor(self.rng)
        return descriptor.address if descriptor is not None else None

    def sample_many(self, count: int) -> List[NodeAddress]:
        """``count`` independent samples (duplicates possible, as in a true PSS)."""
        samples: List[NodeAddress] = []
        for _ in range(count):
            drawn = self.sample()
            if drawn is not None:
                samples.append(drawn)
        return samples

    def views(self) -> Tuple[PartialView, ...]:
        """Every view this node keeps: one here; Croupier keeps a public and a private."""
        return (self.view,)

    def neighbor_addresses(self) -> List[NodeAddress]:
        """Every node currently referenced by this node's view(s); used by graph metrics."""
        return [d.address for view in self.views() for d in view]

    # ------------------------------------------------------------------ helpers

    def self_descriptor(self) -> NodeDescriptor:
        """A fresh (age-0) descriptor describing this node.

        Descriptors are immutable, so the same age-0 instance can be shared by every
        message that embeds it; it is rebuilt only if the host's address object changes
        (NAT-type identification replaces the address before the PSS starts).
        """
        cached = self._self_descriptor
        address = self.host.address
        if cached is None or cached.address is not address:
            cached = NodeDescriptor(address=address, age=0)
            self._self_descriptor = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.name}(node={self.address.node_id}, round={self.current_round}, "
            f"{self.address.nat_type.value})"
        )
