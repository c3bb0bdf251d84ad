"""The Croupier peer-sampling component (Algorithm 2 of the paper).

Every node — public or private — keeps a *public view* and a *private view* and, once
per round, sends a shuffle request to the oldest descriptor in its public view. Only
public nodes ("croupiers") ever receive shuffle requests; they shuffle public and
private descriptors on behalf of everyone and reply with a shuffle response. Ratio
estimates ride along on both messages.

The component exposes the peer-sampling API of
:class:`~repro.membership.base.PeerSamplingService` plus Croupier-specific
introspection used by the experiments (estimated ratio, view snapshots).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

from repro.core.config import CroupierConfig
from repro.core.estimator import RatioEstimator
from repro.core.messages import ShuffleRequest, ShuffleResponse
from repro.core.sampling import generate_random_sample
from repro.membership.base import NatStrategy, PeerSamplingService
from repro.membership.descriptor import NodeDescriptor
from repro.membership.plugin import register_protocol
from repro.membership.view import PartialView
from repro.net.address import NodeAddress
from repro.simulator.host import Host
from repro.simulator.message import Packet


class _Exchange(NamedTuple):
    """The descriptors one side of a shuffle sends from each view; for an outstanding
    request, also the round it was issued in."""

    public: Sequence[NodeDescriptor]
    private: Sequence[NodeDescriptor]
    issued_round: int = 0


_NOTHING_SENT = _Exchange((), ())


class Croupier(PeerSamplingService):
    """NAT-aware peer sampling without relaying.

    Runs the shared shuffle with the public view as its view (only public nodes are
    shuffle partners); the payload hooks add the private view and the ratio estimates.
    """

    shuffle_messages = (ShuffleRequest, ShuffleResponse)
    #: Partners come from the public view only; private descriptors and ratio
    #: estimates ride along in the payload hooks below.
    nat_strategy = NatStrategy.CROUPIER

    def __init__(self, host: Host, config: Optional[CroupierConfig] = None) -> None:
        config = config or CroupierConfig()
        super().__init__(host, config, name="Croupier")
        self.config: CroupierConfig = config
        self.public_view = self.view
        self.private_view = PartialView(config.view_size)
        self.estimator = RatioEstimator(
            alpha=config.local_history_alpha,
            gamma=config.neighbour_history_gamma,
            is_public=self.address.is_public,
        )

    # ------------------------------------------------------------------ bootstrap

    def initialize_view(self, seeds: Sequence[NodeAddress]) -> None:
        """Seed the views from bootstrap-provided addresses.

        Public seeds go into the public view and private seeds into the private view;
        in practice the bootstrap service only hands out public nodes, but accepting
        both keeps the method usable for tests that construct arbitrary topologies.
        """
        for address in seeds:
            if address.node_id == self.address.node_id:
                continue
            descriptor = NodeDescriptor(address=address, age=0)
            if address.is_public:
                self.public_view.add(descriptor)
            else:
                self.private_view.add(descriptor)

    # ------------------------------------------------------------------ gossip round

    def on_round(self) -> None:
        """One execution of the paper's ``Round`` procedure (Algorithm 2, lines 2–23)."""
        self.public_view.increase_ages()
        self.private_view.increase_ages()
        self.estimator.advance_round()
        self._expire_pending()
        self._start_exchange()

    def _expire_pending(self) -> None:
        horizon = self.current_round - self.config.pending_shuffle_timeout_rounds
        expired = [nid for nid, entry in self._pending.items() if entry.issued_round <= horizon]
        for nid in expired:
            del self._pending[nid]

    # ------------------------------------------------------------------ payload hooks

    def _push(self, partner_id: int) -> Tuple[_Exchange, ShuffleRequest]:
        """Up to ``shuffle_size`` descriptors from each view; the node's own fresh
        descriptor takes one slot of the view matching its class."""
        size = self.config.shuffle_size
        is_public = self.address.is_public
        send_public = self.public_view.random_subset(
            self.rng, size - 1 if is_public else size, exclude_ids=(partner_id,)
        )
        send_private = self.private_view.random_subset(
            self.rng, size if is_public else size - 1
        )
        (send_public if is_public else send_private).append(self.self_descriptor())
        # Descriptors are immutable: the message and the pending record share the
        # same tuples (no defensive copies anywhere on this path).
        sent = _Exchange(tuple(send_public), tuple(send_private), self.current_round)
        return sent, self._message(ShuffleRequest, sent.public, sent.private)

    def _on_request(self, packet: Packet) -> None:
        """Croupier-side handling (Algorithm 2, lines 25–38). Only public nodes run this."""
        if not self.address.is_public:
            # A private node received a shuffle request: protocol violation (stale or
            # corrupt descriptor). Count it and ignore.
            self.stats.extra["misdirected_requests"] = (
                self.stats.extra.get("misdirected_requests", 0) + 1
            )
            return
        self.estimator.record_shuffle_request(packet.message.sender.is_public)
        super()._on_request(packet)

    def _pull(self, sender_id: int) -> _Exchange:
        exclude = (sender_id,)
        size = self.config.shuffle_size
        return _Exchange(
            self.public_view.random_subset(self.rng, size, exclude_ids=exclude),
            self.private_view.random_subset(self.rng, size, exclude_ids=exclude),
        )

    def _merge(self, sent: _Exchange, message: ShuffleRequest) -> None:
        """Swapper-merge both views, then the piggy-backed estimates — on the croupier
        against its reply, on the requester against its pending record."""
        sent_public, sent_private, _ = sent or _NOTHING_SENT
        self_id = self.address.node_id
        self.public_view.update_view(sent_public, message.public_descriptors, self_id)
        self.private_view.update_view(sent_private, message.private_descriptors, self_id)
        self.estimator.merge_estimates([*message.estimates, message.sender_estimate])

    def _response(self, reply: _Exchange) -> ShuffleResponse:
        return self._message(ShuffleResponse, tuple(reply.public), tuple(reply.private))

    def _message(self, message_type: type, public: tuple, private: tuple):
        """A shuffle message with a bounded subset of the cached estimates (drawn after
        the merges on the croupier's side) and, from a public node, its own estimate."""
        return message_type(
            sender=self.self_descriptor(),
            public_descriptors=public,
            private_descriptors=private,
            estimates=tuple(
                self.estimator.estimates_subset(
                    self.rng, self.config.max_estimates_per_message
                )
            ),
            sender_estimate=self.estimator.own_estimate_record(self.address.node_id),
        )

    # ------------------------------------------------------------------ sampling API

    def sample(self) -> Optional[NodeAddress]:
        self.stats.samples_served += 1
        return generate_random_sample(
            self.public_view,
            self.private_view,
            self.estimator.estimate_ratio(),
            self.rng,
        )

    def views(self) -> Tuple[PartialView, PartialView]:
        return self.public_view, self.private_view

    # ------------------------------------------------------------------ introspection

    def estimated_ratio(self) -> Optional[float]:
        """The node's current estimate of ω, or ``None`` before any information arrives."""
        return self.estimator.estimate_ratio()


register_protocol(
    "croupier",
    Croupier,
    CroupierConfig,
    description="NAT-aware peer sampling without relaying; croupiers shuffle on behalf "
    "of private nodes and piggy-back ratio estimates (Algorithm 2)",
)
