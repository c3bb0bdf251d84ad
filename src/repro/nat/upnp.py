"""UPnP Internet Gateway Device (IGD) emulation.

The paper's NAT-type identification protocol (Algorithm 1, line 4) first checks whether
the node's gateway supports the UPnP IGD protocol; if it does, the node explicitly maps
a local port to a public port and is classified as a **public** node, because any other
node can then reach it directly.

:class:`UpnpNatBox` is a regular :class:`~repro.nat.nat_box.NatBox` that additionally
accepts explicit, permanent port mappings with endpoint-independent filtering — which is
precisely the observable effect of a UPnP ``AddPortMapping`` call.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NatError
from repro.nat.allocator import AllocationPolicy
from repro.nat.nat_box import NatBinding, NatBox
from repro.nat.types import FilteringPolicy, NatProfile
from repro.net.address import Endpoint


class UpnpNatBox(NatBox):
    """A NAT box whose owner can install explicit port mappings (UPnP IGD)."""

    def __init__(
        self,
        external_ip: str,
        profile: Optional[NatProfile] = None,
        allocation: AllocationPolicy = AllocationPolicy.PORT_PRESERVATION,
    ) -> None:
        super().__init__(external_ip, profile=profile, allocation=allocation)
        self.supports_upnp_igd = True

    def add_port_mapping(
        self,
        internal_endpoint: Endpoint,
        external_port: Optional[int] = None,
        now: float = 0.0,
    ) -> Endpoint:
        """Install a permanent mapping from ``external_port`` to ``internal_endpoint``.

        Returns the resulting external endpoint. The mapping never expires and accepts
        inbound packets from any source (endpoint-independent filtering), regardless of
        the box's normal filtering policy — that is what makes the node effectively
        public.
        """
        requested = external_port if external_port is not None else internal_endpoint.port
        if requested in self._by_external_port:
            binding = self._by_external_port[requested]
            if binding.internal != internal_endpoint:
                raise NatError(
                    f"UPnP mapping conflict on external port {requested} "
                    f"(held by {binding.internal})"
                )
            binding.permanent = True
            return binding.external
        allocated = self._allocator.allocate(preferred_port=requested)
        binding = NatBinding(
            internal=internal_endpoint,
            external=Endpoint(self.external_ip, allocated),
            created_at=now,
            last_refreshed=now,
            permanent=True,
        )
        self._bindings[("upnp", internal_endpoint, allocated)] = binding
        self._by_external_port[allocated] = binding
        return binding.external

    def accept_inbound(
        self, source: Endpoint, external_destination: Endpoint, now: float
    ) -> Optional[Endpoint]:
        """Permanent (UPnP) bindings accept from anyone; others follow the NAT profile."""
        binding = self._by_external_port.get(external_destination.port)
        if binding is not None and binding.permanent:
            if binding.allows_inbound(source, FilteringPolicy.ENDPOINT_INDEPENDENT):
                return binding.internal
        return super().accept_inbound(source, external_destination, now)
