"""Message and packet abstractions.

Protocols define their messages as subclasses of :class:`Message` and give each one a
``payload_size`` so the traffic monitor can account protocol overhead in bytes, the way
Figure 7(a) of the paper reports it. The :class:`Packet` is what actually travels through
the simulated network: the message plus the source and destination endpoints as observed
*on the wire* — i.e. after NAT translation, which is what the NAT-type identification
protocol inspects.
"""

from __future__ import annotations

from typing import Optional

from repro import wire
from repro.net.address import Endpoint, NodeAddress


class Message:
    """Base class for every protocol message.

    Subclasses should be small immutable containers (dataclasses are encouraged) and
    must override :meth:`payload_size` to report the number of payload bytes their wire
    encoding would occupy, computed by :mod:`repro.wire`. The simulator never
    serialises messages — sizes are used purely for overhead accounting.
    """

    # Messages are allocated per shuffle per round; the base class must not force
    # a __dict__ on slotted subclasses. (Dataclass subclasses still carry their
    # own __dict__ for their fields — only the cache below lives in a slot.)
    __slots__ = ("_wire_size_cache",)

    def payload_size(self) -> int:
        """Size of the message payload in bytes (excluding IP/UDP headers)."""
        return 0

    @property
    def wire_size(self) -> int:
        """Total on-the-wire size in bytes including IP and UDP headers.

        Cached after the first computation: message contents never change once the
        message is sent.
        """
        cached = getattr(self, "_wire_size_cache", None)
        if cached is None:
            cached = wire.HEADER + self.payload_size()
            self._wire_size_cache = cached
        return cached


class Packet:
    """A datagram in flight (or delivered).

    One packet is allocated per message per hop, which makes this the single
    hottest allocation site of the simulator — hence ``__slots__`` (a plain class
    rather than a dataclass: the project supports Python 3.9, which predates
    ``@dataclass(slots=True)``).

    Attributes
    ----------
    source:
        The source endpoint as seen by the receiver. For a sender behind a NAT this is
        the NAT's external mapping, not the sender's private endpoint.
    destination:
        The endpoint the packet was addressed to.
    message:
        The protocol message payload.
    sender:
        The :class:`NodeAddress` of the originating node, when known. This is metadata
        for tracing and assertions only — protocol handlers must not rely on it for
        information a real datagram would not carry (they should use addresses embedded
        in the message instead). The NAT-type identification tests deliberately ignore
        it.
    sent_at:
        Virtual time (ms) at which the packet entered the network.
    size:
        The message's :attr:`~Message.wire_size`, read once, when the packet is built.
    """

    __slots__ = ("source", "destination", "message", "sender", "sent_at", "size")

    def __init__(
        self,
        source: Endpoint,
        destination: Endpoint,
        message: Message,
        sender: Optional[NodeAddress] = None,
        sent_at: float = 0.0,
        size: Optional[int] = None,
    ) -> None:
        self.source = source
        self.destination = destination
        self.message = message
        self.sender = sender
        self.sent_at = sent_at
        self.size = message.wire_size if size is None else size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({type(self.message).__name__} {self.source} -> {self.destination}, "
            f"{self.size}B)"
        )
