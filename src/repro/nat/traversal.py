"""NAT traversal primitives used by the *baseline* protocols (Nylon, Gozar).

Croupier's whole point is that it needs none of this — view exchanges are only ever sent
to public nodes. The baselines, however, must reach private nodes, and they do so with
two classic techniques that this module provides as reusable message types:

* **Relaying** (:class:`RelayEnvelope`): the payload is wrapped in an envelope addressed
  to a relay node, which forwards it to the final private target. Gozar relays every
  shuffle with a private node through one of that node's *parents*, one hop.
* **Hole punching** (:class:`HolePunchRequest` / :class:`HolePunchPing`): a rendezvous
  node asks the private target to open an outbound flow towards the initiator, which
  installs the NAT mapping the initiator's subsequent packets will traverse.
* **Keep-alives** (:class:`KeepAlive`): private nodes periodically refresh the NAT
  mappings towards their relays/RVPs so that relayed traffic keeps flowing. These
  messages are a real cost and are accounted like any other traffic — they are part of
  why the baselines have higher overhead in Figure 7(a).

Every size is :mod:`repro.wire`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro import wire
from repro.net.address import NodeAddress
from repro.simulator.message import Message


@dataclass
class RelayEnvelope(Message):
    """A message wrapped for delivery to a private node via a relay.

    Attributes
    ----------
    target:
        The private node the payload is ultimately destined for.
    initiator:
        The node that originated the payload (so the target can reply directly).
    payload:
        The wrapped protocol message.
    """

    target: NodeAddress
    initiator: NodeAddress
    payload: Message

    def payload_size(self) -> int:
        return wire.relay(self.payload.payload_size())


@dataclass
class HolePunchRequest(Message):
    """Ask a private node (via its rendezvous) to open a flow towards ``initiator``."""

    initiator: NodeAddress
    target: NodeAddress
    hops: int = 0
    max_hops: int = 16

    def payload_size(self) -> int:
        return wire.punch_request()

    def forwarded(self) -> "HolePunchRequest":
        return replace(self, hops=self.hops + 1)

    @property
    def exceeded_hop_limit(self) -> bool:
        return self.hops >= self.max_hops


@dataclass
class HolePunchPing(Message):
    """The outbound packet a private node sends to punch a hole in its own NAT."""

    origin: NodeAddress

    def payload_size(self) -> int:
        return wire.punch_ping()


@dataclass(frozen=True)
class KeepAlive(Message):
    """Periodic refresh of a NAT mapping towards a relay or rendezvous node."""

    origin: NodeAddress
    wire_size = wire.HEADER + wire.keepalive()  # frozen: the property could not cache


@dataclass(frozen=True)
class KeepAliveAck(Message):
    """Acknowledgement of a :class:`KeepAlive` (lets the sender detect dead relays)."""

    origin: NodeAddress
    wire_size = wire.HEADER + wire.keepalive()  # frozen: the property could not cache


def keepalives(
    address: NodeAddress, current: Optional[Tuple[KeepAlive, KeepAliveAck]] = None
) -> Tuple[KeepAlive, KeepAliveAck]:
    """A node's one frozen ``(KeepAlive, KeepAliveAck)``, shared by all its sends:
    ``current`` while its origin is ``address`` itself, else a new pair (NAT-type
    identification replaces the host's address object)."""
    if current is None or current[0].origin is not address:
        current = (KeepAlive(origin=address), KeepAliveAck(origin=address))
    return current


@dataclass
class RelayRegistration(Message):
    """A private node asking a public node to act as its relay/parent (Gozar)."""

    origin: NodeAddress

    def payload_size(self) -> int:
        return wire.registration()


@dataclass
class RelayRegistrationAck(Message):
    """A public node accepting (or refusing) a relay registration."""

    origin: NodeAddress
    accepted: bool = True

    def payload_size(self) -> int:
        return wire.registration()
