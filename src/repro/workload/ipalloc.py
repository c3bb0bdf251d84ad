"""Deterministic IP address allocation for simulated hosts and NAT boxes.

Address ranges (purely conventional, but keeping them disjoint makes traces readable
and lets tests assert on the class of an address):

* ``1.x.y.z``   — public hosts
* ``2.x.y.z``   — NAT/firewall external addresses
* ``10.x.y.z``  — private (internal) host addresses
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.net.address import format_ipv4


class IpAllocator:
    """Hands out unique IP addresses per category."""

    _RANGES = {
        "public": 1,
        "nat": 2,
        "private": 10,
    }
    #: Each /8 gives us 2^24 - 2 usable host numbers; simulations use far fewer.
    _MAX_PER_RANGE = (1 << 24) - 2

    def __init__(self) -> None:
        self._counters = {category: 0 for category in self._RANGES}

    def _allocate(self, category: str) -> str:
        counter = self._counters[category]
        if counter >= self._MAX_PER_RANGE:
            raise ConfigurationError(f"IP range exhausted for category {category!r}")
        self._counters[category] = counter + 1
        prefix = self._RANGES[category]
        # Host numbers start at 1 so we never produce a .0.0.0 network address.
        return format_ipv4((prefix << 24) | (counter + 1))

    def public_ip(self) -> str:
        """A globally reachable address for a public host."""
        return self._allocate("public")

    def nat_external_ip(self) -> str:
        """The external (public-facing) address of a NAT box."""
        return self._allocate("nat")

    def private_ip(self) -> str:
        """An internal address for a host behind a NAT."""
        return self._allocate("private")
