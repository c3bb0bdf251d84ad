"""ARRG: Actualized Robust Random Gossiping (Drost et al. [15]).

ARRG was the first peer-sampling service to address NATs, and the Croupier paper uses it
as a cautionary tale rather than a head-to-head baseline: when a view exchange fails
(e.g. because the chosen partner sits behind a NAT), ARRG falls back to a node from its
*open list* — nodes with which it completed a successful exchange in the past. The
fallback keeps the overlay connected but **biases** the sampling towards the open-list
nodes. No figure or ablation here measures that bias; ARRG runs only where a protocol
is chosen by name (``repro matrix --protocols arrg``, the tests).

The implementation is the shared single-view shuffle plus the open list (filled in
``_reply`` and ``_on_response``) and a per-shuffle timeout that triggers the fallback
(armed in ``_route``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.membership.base import PeerSamplingService, PssConfig, ViewShuffleRequest
from repro.membership.descriptor import NodeDescriptor
from repro.membership.plugin import register_protocol
from repro.net.address import NodeAddress
from repro.simulator.host import Host
from repro.simulator.message import Message, Packet


@dataclass
class ArrgConfig(PssConfig):
    """ARRG-specific knobs.

    Attributes
    ----------
    open_list_size:
        Maximum number of previously successful partners remembered for fallback.
    exchange_timeout_ms:
        How long to wait for a shuffle response before falling back to the open list.
    """

    open_list_size: int = 10
    exchange_timeout_ms: float = 500.0


class Arrg(PeerSamplingService):
    """The shared single-view shuffle with an open-list fallback on failed exchanges."""

    def __init__(self, host: Host, config: Optional[ArrgConfig] = None) -> None:
        super().__init__(host, config or ArrgConfig(), name="ARRG")
        self.config: ArrgConfig = self.config  # type: ignore[assignment]
        #: Nodes we successfully exchanged views with, most recent last.
        self.open_list: List[NodeAddress] = []
        self.fallback_exchanges = 0

    def on_round(self) -> None:
        self.view.increase_ages()
        self._start_exchange()

    # ------------------------------------------------------------------ hooks

    def _route(self, partner: NodeDescriptor, message: Message) -> None:
        super()._route(partner, message)
        self.schedule(
            self.config.exchange_timeout_ms,
            lambda: self._fall_back(partner.node_id, message),
        )

    def _reply(self, packet: Packet, request: Message, response: Message) -> None:
        self._remember_success(request.sender.address)
        super()._reply(packet, request, response)

    def _on_response(self, packet: Packet) -> None:
        super()._on_response(packet)
        self._remember_success(packet.message.sender.address)

    # ------------------------------------------------------------------ open list

    def _fall_back(self, partner_id: int, request: ViewShuffleRequest) -> None:
        """If the exchange with ``partner_id`` never completed, retry once with the
        open list (the retry arms no further timeout)."""
        if partner_id not in self._pending:
            return  # the response arrived in time
        del self._pending[partner_id]
        candidates = [a for a in self.open_list if a.node_id != partner_id]
        if not candidates:
            return
        fallback = self.rng.choice(candidates)
        self.fallback_exchanges += 1
        self._pending[fallback.node_id] = request.descriptors
        self.stats.shuffles_initiated += 1
        self.send_to_node(fallback, request)

    def _remember_success(self, partner: NodeAddress) -> None:
        self.open_list = [a for a in self.open_list if a.node_id != partner.node_id]
        self.open_list.append(partner)
        if len(self.open_list) > self.config.open_list_size:
            self.open_list.pop(0)


register_protocol(
    "arrg",
    Arrg,
    ArrgConfig,
    description="Cyclon-style shuffle with an open-list fallback on failed exchanges; "
    "keeps NATed overlays connected at the price of sampling bias",
)
