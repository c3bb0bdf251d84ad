"""The NAT gateway itself: bindings, translation, filtering and expiry.

A :class:`NatBox` owns one external (public) IP address and any number of internal
hosts. The network routes every packet addressed to the NAT's external IP through
:meth:`NatBox.accept_inbound`, and every packet sent by an internal host through
:meth:`NatBox.translate_outbound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import NatError
from repro.nat.allocator import AllocationPolicy, PortAllocator
from repro.nat.types import FilteringPolicy, MappingPolicy, NatProfile
from repro.net.address import Endpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.host import Host


# Port -> the one ``(port,)`` tuple every binding's ``contacted`` index stores for
# a remote IP contacted on that port alone. Tuples are immutable, so sharing one
# changes no lookup; it saves a tuple per (binding, remote IP).
_ONE_PORT: Dict[int, Tuple[int]] = {}


@dataclass
class NatBinding:
    """One UDP mapping in the NAT's translation table.

    Attributes
    ----------
    internal:
        The internal endpoint (private IP and port) the binding belongs to.
    external:
        The external endpoint allocated for it: the NAT's public IP plus the mapped
        port. Built once; every translated packet carries this same object.
    created_at / last_refreshed:
        Virtual timestamps (ms) used for idle expiry.
    contacted:
        The remote endpoints this binding has sent packets to, indexed as remote IP ->
        ports contacted on it. Both the address-dependent and the
        address-and-port-dependent filtering policy are one hash lookup in it, whatever
        the number of remotes; the ports of one remote IP are a tuple. A remote is
        contacted on its protocol port by every protocol here, so nearly every entry
        is one port, and a one-port entry is the tuple :data:`_ONE_PORT` shares for
        that port across all bindings (a second port builds a new tuple).
    """

    internal: Endpoint
    external: Endpoint
    created_at: float
    last_refreshed: float
    contacted: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    permanent: bool = False

    def is_expired(self, now: float, timeout_ms: float) -> bool:
        if self.permanent:
            return False
        return (now - self.last_refreshed) > timeout_ms

    def record_contact(self, remote: Endpoint) -> None:
        """Remember that the binding sent a packet to ``remote``."""
        ports = self.contacted.get(remote.ip)
        port = remote.port
        if ports is None:
            shared = _ONE_PORT.get(port)
            if shared is None:
                shared = _ONE_PORT[port] = (port,)
            self.contacted[remote.ip] = shared
        elif port not in ports:
            self.contacted[remote.ip] = ports + (port,)

    def has_contacted(self, remote: Endpoint) -> bool:
        """Whether the binding has sent a packet to exactly this remote endpoint."""
        return remote.port in self.contacted.get(remote.ip, ())

    def allows_inbound(self, source: Endpoint, policy: FilteringPolicy) -> bool:
        if policy is FilteringPolicy.ENDPOINT_INDEPENDENT:
            return True
        if policy is FilteringPolicy.ADDRESS_DEPENDENT:
            return source.ip in self.contacted
        return self.has_contacted(source)


class NatBox:
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
        self._bindings: Dict[Tuple, NatBinding] = {}
        # External port -> binding, for inbound lookup.
        self._by_external_port: Dict[int, NatBinding] = {}
        # Internal IP -> host, for final delivery.
        self._hosts: Dict[str, "Host"] = {}
        # Lower bound on the smallest ``last_refreshed`` among the non-permanent
        # bindings (``inf`` when there are none). Refresh times only grow, so while
        # ``now - floor`` is within the timeout nothing can have expired and the
        # per-packet paths skip the table scan; a scan recomputes the exact value.
        # The guard is the very expression ``NatBinding.is_expired`` evaluates (not
        # ``now > floor + timeout``), so the two cannot disagree in the last ulp.
        self._refresh_floor = math.inf

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

    # ------------------------------------------------------------------ outbound

    def translate_outbound(
        self, internal_source: Endpoint, destination: Endpoint, now: float
    ) -> Optional[Endpoint]:
        """Allocate/refresh the binding for an outbound packet and return the wire source."""
        if now - self._refresh_floor > self.profile.mapping_timeout_ms:
            self._expire_bindings(now)
        key = self._mapping_key(internal_source, destination)
        binding = self._bindings.get(key)
        if binding is None:
            external_port = self._allocator.allocate(preferred_port=internal_source.port)
            binding = NatBinding(
                internal=internal_source,
                external=Endpoint(self.external_ip, external_port),
                created_at=now,
                last_refreshed=now,
            )
            self._bindings[key] = binding
            self._by_external_port[external_port] = binding
        self._refresh(binding, now)
        binding.record_contact(destination)
        return binding.external

    # ------------------------------------------------------------------ inbound

    def accept_inbound(
        self, source: Endpoint, external_destination: Endpoint, now: float
    ) -> Optional[Endpoint]:
        """Apply filtering to an inbound packet; return the internal endpoint or ``None``."""
        profile = self.profile
        if now - self._refresh_floor > profile.mapping_timeout_ms:
            self._expire_bindings(now)
        binding = self._by_external_port.get(external_destination.port)
        if binding is None:
            return None
        if not binding.allows_inbound(source, profile.filtering):
            return None
        if profile.refresh_on_inbound:
            self._refresh(binding, now)
        return binding.internal

    # ------------------------------------------------------------------ internals

    def _mapping_key(self, internal_source: Endpoint, destination: Endpoint) -> Tuple:
        if self.profile.mapping is MappingPolicy.ENDPOINT_INDEPENDENT:
            return (internal_source,)
        if self.profile.mapping is MappingPolicy.ADDRESS_DEPENDENT:
            return (internal_source, destination.ip)
        return (internal_source, destination.ip, destination.port)

    def _refresh(self, binding: NatBinding, now: float) -> None:
        binding.last_refreshed = now
        # Lowers the floor for a binding created into an empty table (``inf``) and
        # keeps it a lower bound even if a caller's clock steps backwards.
        if now < self._refresh_floor:
            self._refresh_floor = now

    def _expire_bindings(self, now: float) -> None:
        """Drop every idle binding (one table scan) and recompute the refresh floor."""
        timeout_ms = self.profile.mapping_timeout_ms
        floor = math.inf
        expired = []
        for key, binding in self._bindings.items():
            if binding.is_expired(now, timeout_ms):
                expired.append(key)
            elif not binding.permanent and binding.last_refreshed < floor:
                floor = binding.last_refreshed
        self._refresh_floor = floor
        for key in expired:
            port = self._bindings.pop(key).external.port
            self._by_external_port.pop(port, None)
            self._allocator.release(port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NatBox({self.external_ip}, {self.profile}, bindings={len(self._bindings)})"
        )
