"""NAT gateway emulation: mapping, filtering and allocation policies, UPnP, firewalls.

The paper's protocols never inspect NAT internals — they only experience their
*effects*: unsolicited packets to private nodes disappear, replies on recently used
mappings get through, and mappings expire after an idle timeout. This package implements
exactly those effects with the policy vocabulary of RFC 4787 and the NATCracker paper
the authors cite ([20]): endpoint-independent / address-dependent / address-and-port-
dependent mapping and filtering, plus port-preserving, sequential or random port
allocation.

It also provides the two ways a node behind a gateway can still be *public*:

* :class:`~repro.nat.upnp.UpnpNatBox` — a NAT whose owner can install an explicit port
  mapping through the UPnP IGD protocol, making it reachable like a public node (the
  paper's NAT-type identification treats such nodes as public);
* and the degenerate :class:`~repro.nat.firewall.FirewallBox`, a stateful firewall that
  performs no address translation but still blocks unsolicited inbound traffic.

Finally, :mod:`repro.nat.traversal` contains the relaying envelope and hole-punching
coordination messages that the **baseline** protocols (Nylon, Gozar) need. Croupier
itself never uses them — that is the point of the paper.
"""

from repro.nat.allocator import AllocationPolicy, PortAllocator
from repro.nat.firewall import FirewallBox
from repro.nat.mixture import NAT_MIXTURES, NatMixture
from repro.nat.nat_box import NatBinding, NatBox
from repro.nat.types import (
    NAMED_PROFILES,
    FilteringPolicy,
    MappingPolicy,
    NatProfile,
)
from repro.nat.upnp import UpnpNatBox

__all__ = [
    "AllocationPolicy",
    "FilteringPolicy",
    "FirewallBox",
    "MappingPolicy",
    "NAMED_PROFILES",
    "NAT_MIXTURES",
    "NatBinding",
    "NatBox",
    "NatMixture",
    "NatProfile",
    "PortAllocator",
    "UpnpNatBox",
]
