"""Reference NAT box: the table as it was before the packet path was made O(1).

This is the ``ReferenceNatBinding`` / ``ReferenceNatBox`` / ``ReferenceUpnpNatBox`` code of commit 6263077,
moved here verbatim (only the class names gained a ``Reference`` prefix): the
table is scanned for idle bindings on *every* ``translate_outbound`` and every
``accept_inbound``, ``contacted`` is a plain set of endpoints, address-dependent
filtering walks it with ``any(...)`` and every translation builds a new external
``Endpoint``. It is slow on purpose and has no shortcut that could be wrong, which
is what makes it the oracle ``tests/test_nat_box.py::TestTableOracle`` drives the
production box against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.errors import NatError
from repro.nat.allocator import AllocationPolicy, PortAllocator
from repro.nat.types import FilteringPolicy, MappingPolicy, NatProfile
from repro.net.address import Endpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.host import Host


@dataclass
class ReferenceNatBinding:
    """One UDP mapping in the NAT's translation table.

    Attributes
    ----------
    internal:
        The internal endpoint (private IP and port) the binding belongs to.
    external_port:
        The external port allocated for it on the NAT's public IP.
    created_at / last_refreshed:
        Virtual timestamps (ms) used for idle expiry.
    contacted:
        The set of remote endpoints this binding has sent packets to; consulted by the
        address-dependent and address-and-port-dependent filtering policies.
    """

    internal: Endpoint
    external_port: int
    created_at: float
    last_refreshed: float
    contacted: Set[Endpoint] = field(default_factory=set)
    permanent: bool = False

    def is_expired(self, now: float, timeout_ms: float) -> bool:
        if self.permanent:
            return False
        return (now - self.last_refreshed) > timeout_ms

    def allows_inbound(self, source: Endpoint, policy: FilteringPolicy) -> bool:
        if policy is FilteringPolicy.ENDPOINT_INDEPENDENT:
            return True
        if policy is FilteringPolicy.ADDRESS_DEPENDENT:
            return any(remote.ip == source.ip for remote in self.contacted)
        return source in self.contacted


class ReferenceNatBox:
    """A NAT gateway with configurable mapping, filtering and allocation behaviour."""

    def __init__(
        self,
        external_ip: str,
        profile: Optional[NatProfile] = None,
        allocation: AllocationPolicy = AllocationPolicy.PORT_PRESERVATION,
    ) -> None:
        self.external_ip = external_ip
        self.profile = profile or NatProfile.restricted_cone()
        self._allocator = PortAllocator(allocation)
        # Mapping key -> binding. The key shape depends on the mapping policy.
        self._bindings: Dict[Tuple, ReferenceNatBinding] = {}
        # External port -> binding, for inbound lookup.
        self._by_external_port: Dict[int, ReferenceNatBinding] = {}
        # Internal IP -> host, for final delivery.
        self._hosts: Dict[str, "Host"] = {}

    # ------------------------------------------------------------------ host attachment

    def attach_host(self, host: "Host") -> None:
        internal_ip = host.local_endpoint.ip
        existing = self._hosts.get(internal_ip)
        if existing is not None and existing is not host:
            raise NatError(
                f"NAT {self.external_ip}: internal IP {internal_ip} already attached"
            )
        self._hosts[internal_ip] = host

    def detach_host(self, host: "Host") -> None:
        internal_ip = host.local_endpoint.ip
        if self._hosts.get(internal_ip) is host:
            del self._hosts[internal_ip]

    def host_for(self, internal_endpoint: Endpoint) -> Optional["Host"]:
        return self._hosts.get(internal_endpoint.ip)

    @property
    def attached_hosts(self) -> int:
        return len(self._hosts)

    # ------------------------------------------------------------------ outbound

    def translate_outbound(
        self, internal_source: Endpoint, destination: Endpoint, now: float
    ) -> Optional[Endpoint]:
        """Allocate/refresh the binding for an outbound packet and return the wire source."""
        self._expire_bindings(now)
        key = self._mapping_key(internal_source, destination)
        binding = self._bindings.get(key)
        if binding is None:
            external_port = self._allocator.allocate(preferred_port=internal_source.port)
            binding = ReferenceNatBinding(
                internal=internal_source,
                external_port=external_port,
                created_at=now,
                last_refreshed=now,
            )
            self._bindings[key] = binding
            self._by_external_port[external_port] = binding
        binding.last_refreshed = now
        binding.contacted.add(destination)
        return Endpoint(self.external_ip, binding.external_port)

    # ------------------------------------------------------------------ inbound

    def accept_inbound(
        self, source: Endpoint, external_destination: Endpoint, now: float
    ) -> Optional[Endpoint]:
        """Apply filtering to an inbound packet; return the internal endpoint or ``None``."""
        self._expire_bindings(now)
        binding = self._by_external_port.get(external_destination.port)
        if binding is None:
            return None
        if not binding.allows_inbound(source, self.profile.filtering):
            return None
        if self.profile.refresh_on_inbound:
            binding.last_refreshed = now
        return binding.internal

    # ------------------------------------------------------------------ introspection

    def binding_for_internal(self, internal_source: Endpoint) -> Optional[ReferenceNatBinding]:
        """Return any live binding for an internal endpoint (testing/diagnostics)."""
        for binding in self._bindings.values():
            if binding.internal == internal_source:
                return binding
        return None

    @property
    def active_bindings(self) -> int:
        return len(self._bindings)

    def has_mapping_to(self, internal_source: Endpoint, remote: Endpoint) -> bool:
        """Whether the internal endpoint has an unexpired binding that contacted ``remote``."""
        binding = self.binding_for_internal(internal_source)
        return binding is not None and remote in binding.contacted

    # ------------------------------------------------------------------ internals

    def _mapping_key(self, internal_source: Endpoint, destination: Endpoint) -> Tuple:
        if self.profile.mapping is MappingPolicy.ENDPOINT_INDEPENDENT:
            return (internal_source,)
        if self.profile.mapping is MappingPolicy.ADDRESS_DEPENDENT:
            return (internal_source, destination.ip)
        return (internal_source, destination.ip, destination.port)

    def _expire_bindings(self, now: float) -> None:
        expired = [
            key
            for key, binding in self._bindings.items()
            if binding.is_expired(now, self.profile.mapping_timeout_ms)
        ]
        for key in expired:
            binding = self._bindings.pop(key)
            self._by_external_port.pop(binding.external_port, None)
            self._allocator.release(binding.external_port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReferenceNatBox({self.external_ip}, {self.profile}, "
            f"bindings={self.active_bindings})"
        )


class ReferenceUpnpNatBox(ReferenceNatBox):
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
            return Endpoint(self.external_ip, requested)
        allocated = self._allocator.allocate(preferred_port=requested)
        binding = ReferenceNatBinding(
            internal=internal_endpoint,
            external_port=allocated,
            created_at=now,
            last_refreshed=now,
            permanent=True,
        )
        self._bindings[("upnp", internal_endpoint, allocated)] = binding
        self._by_external_port[allocated] = binding
        return Endpoint(self.external_ip, allocated)

    def accept_inbound(
        self, source: Endpoint, external_destination: Endpoint, now: float
    ) -> Optional[Endpoint]:
        """Permanent (UPnP) bindings accept from anyone; others follow the NAT profile."""
        binding = self._by_external_port.get(external_destination.port)
        if binding is not None and binding.permanent:
            if binding.allows_inbound(source, FilteringPolicy.ENDPOINT_INDEPENDENT):
                return binding.internal
        return super().accept_inbound(source, external_destination, now)
