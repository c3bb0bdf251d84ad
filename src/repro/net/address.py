"""Addressing primitives shared by the simulator, the NAT substrate and the protocols.

The model follows the paper's system model (Section III): every node is either *public*
(reachable on a globally routable IP address) or *private* (behind at least one NAT or
firewall, reachable only on connections it initiated itself).

Addresses are deliberately lightweight, hashable value objects: protocol views store
thousands of them and the simulator copies them into messages freely.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError


def format_ipv4(value: int) -> str:
    """Render a 32-bit integer as a dotted-quad IPv4 string.

    >>> format_ipv4(0x0A000001)
    '10.0.0.1'
    """
    if not 0 <= value <= 0xFFFFFFFF:
        raise ConfigurationError(f"IPv4 value out of range: {value!r}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


#: Memoised successful parses. The simulator re-validates the same bounded set of
#: addresses on every Endpoint construction and every packet send; caching turns that
#: into a dict hit. Only valid addresses are cached, so error behaviour is unchanged,
#: and the cache is bounded by the number of distinct IPs in the topology.
_PARSE_CACHE: dict = {}


def parse_ipv4(text: str) -> int:
    """Parse a dotted-quad IPv4 string into a 32-bit integer (memoised).

    >>> parse_ipv4('10.0.0.1') == 0x0A000001
    True
    """
    cached = _PARSE_CACHE.get(text)
    if cached is not None:
        return cached
    parts = text.split(".")
    if len(parts) != 4:
        raise ConfigurationError(f"not a dotted-quad IPv4 address: {text!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError as exc:
            raise ConfigurationError(f"not a dotted-quad IPv4 address: {text!r}") from exc
        if not 0 <= octet <= 255:
            raise ConfigurationError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    _PARSE_CACHE[text] = value
    return value


class NatType(enum.Enum):
    """The node classification used throughout the paper.

    ``PUBLIC``
        The node has a globally reachable address (or a UPnP IGD mapping that makes it
        behave as if it had one).
    ``PRIVATE``
        The node sits behind at least one NAT or firewall and can only be reached on
        flows it initiated.
    ``UNKNOWN``
        The node has not yet run the NAT-type identification protocol.
    """

    PUBLIC = "public"
    PRIVATE = "private"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Endpoint(namedtuple("Endpoint", ("ip", "port"))):
    """A UDP endpoint: an IP address plus a port.

    Endpoints compare and hash by value so they can key NAT mapping tables and the
    simulator's routing table. They are ``(ip, port)`` tuples, so hashing and
    comparing run in C on every NAT lookup; the hash is ``hash((ip, port))``.
    """

    __slots__ = ()

    def __new__(cls, ip: str, port: int) -> "Endpoint":
        if not 0 < port <= 0xFFFF:
            raise ConfigurationError(f"port out of range: {port!r}")
        # Validate the IP eagerly so malformed endpoints fail at construction time.
        parse_ipv4(ip)
        return tuple.__new__(cls, (ip, port))

    def with_port(self, port: int) -> "Endpoint":
        """Return a copy of this endpoint with a different port."""
        return Endpoint(self.ip, port)

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclass(frozen=True)
class NodeAddress:
    """The identity and contact information of a node.

    Attributes
    ----------
    node_id:
        A globally unique integer identifier. Equality and hashing use only this field,
        which matches how the protocols treat node identity (a node that rejoins after a
        failure gets a fresh identifier).
    endpoint:
        The endpoint other nodes use to contact this node. For a public node this is its
        own globally reachable endpoint; for a private node it is the external endpoint
        of its NAT (which is only usable on NAT mappings the private node opened).
    nat_type:
        The node's NAT classification (:class:`NatType`).
    private_endpoint:
        For private nodes, the endpoint on the node's own private network. ``None`` for
        public nodes. The NAT-type identification protocol compares this with the
        publicly observed address.
    """

    node_id: int
    endpoint: Endpoint
    nat_type: NatType = NatType.UNKNOWN
    private_endpoint: Optional[Endpoint] = field(default=None, compare=False)
    #: ``nat_type is NatType.PUBLIC``, stored: the protocols read it on most packets.
    is_public: bool = field(init=False, compare=False, repr=False)
    #: ``nat_type is NatType.PRIVATE``, stored: Gozar reads it on most packets. Not
    #: ``not is_public``: an ``UNKNOWN`` node is neither.
    is_private: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ConfigurationError(f"node_id must be non-negative, got {self.node_id}")
        object.__setattr__(self, "is_public", self.nat_type is NatType.PUBLIC)
        object.__setattr__(self, "is_private", self.nat_type is NatType.PRIVATE)

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeAddress):
            return NotImplemented
        return self.node_id == other.node_id

    def with_nat_type(self, nat_type: NatType) -> "NodeAddress":
        """Return a copy of this address with the NAT type replaced."""
        return NodeAddress(
            node_id=self.node_id,
            endpoint=self.endpoint,
            nat_type=nat_type,
            private_endpoint=self.private_endpoint,
        )

    def __str__(self) -> str:
        return f"node{self.node_id}({self.nat_type.value}@{self.endpoint})"

    def __repr__(self) -> str:
        return (
            f"NodeAddress(node_id={self.node_id}, endpoint={self.endpoint!s}, "
            f"nat_type={self.nat_type.value})"
        )
