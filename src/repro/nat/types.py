"""NAT behaviour vocabulary (RFC 4787 / NATCracker terminology).

A NAT's observable behaviour is described by three orthogonal policies plus a UDP
mapping timeout. The combinations commonly referred to as *full cone*, *restricted
cone*, *port-restricted cone* and *symmetric* NATs are provided as ready-made
:class:`NatProfile` instances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError


class MappingPolicy(enum.Enum):
    """How the NAT reuses an external port for flows from the same internal endpoint.

    ``ENDPOINT_INDEPENDENT``
        One external port per internal endpoint, reused for every destination. This is
        the behaviour required for hole punching to work reliably.
    ``ADDRESS_DEPENDENT``
        A separate external port per (internal endpoint, destination IP).
    ``ADDRESS_PORT_DEPENDENT``
        A separate external port per (internal endpoint, destination IP, destination
        port) — the "symmetric" NAT behaviour that defeats simple hole punching.
    """

    ENDPOINT_INDEPENDENT = "ei"
    ADDRESS_DEPENDENT = "ad"
    ADDRESS_PORT_DEPENDENT = "apd"


class FilteringPolicy(enum.Enum):
    """Which inbound packets the NAT lets through to an existing mapping.

    ``ENDPOINT_INDEPENDENT``
        Anyone may send to the mapping's external port once it exists.
    ``ADDRESS_DEPENDENT``
        Only hosts (IP addresses) the internal endpoint has already sent to.
    ``ADDRESS_PORT_DEPENDENT``
        Only the exact (IP, port) endpoints the internal endpoint has already sent to.
    """

    ENDPOINT_INDEPENDENT = "ei"
    ADDRESS_DEPENDENT = "ad"
    ADDRESS_PORT_DEPENDENT = "apd"


@dataclass(frozen=True)
class NatProfile:
    """A complete description of a NAT box's behaviour.

    Attributes
    ----------
    mapping:
        The mapping (binding re-use) policy.
    filtering:
        The inbound filtering policy.
    mapping_timeout_ms:
        Idle time after which a UDP mapping is dropped. The paper assumes this is below
        five minutes (it uses a five-minute quiet period in the ForwardTest); 60 seconds
        is a common measured value and the default here.
    refresh_on_inbound:
        Whether inbound traffic refreshes the mapping timer (most consumer NATs only
        refresh on outbound traffic, which is the default).
    port_preservation:
        Whether the NAT tries to keep the external port equal to the internal port.
    """

    mapping: MappingPolicy = MappingPolicy.ENDPOINT_INDEPENDENT
    filtering: FilteringPolicy = FilteringPolicy.ENDPOINT_INDEPENDENT
    mapping_timeout_ms: float = 60_000.0
    refresh_on_inbound: bool = False
    port_preservation: bool = True

    def __post_init__(self) -> None:
        if self.mapping_timeout_ms <= 0:
            raise ConfigurationError(
                f"mapping_timeout_ms must be positive, got {self.mapping_timeout_ms}"
            )

    # ------------------------------------------------------------------ common profiles

    @staticmethod
    def full_cone(mapping_timeout_ms: float = 60_000.0) -> "NatProfile":
        """Endpoint-independent mapping and filtering."""
        return NatProfile(
            mapping=MappingPolicy.ENDPOINT_INDEPENDENT,
            filtering=FilteringPolicy.ENDPOINT_INDEPENDENT,
            mapping_timeout_ms=mapping_timeout_ms,
        )

    @staticmethod
    def restricted_cone(mapping_timeout_ms: float = 60_000.0) -> "NatProfile":
        """Endpoint-independent mapping, address-dependent filtering."""
        return NatProfile(
            mapping=MappingPolicy.ENDPOINT_INDEPENDENT,
            filtering=FilteringPolicy.ADDRESS_DEPENDENT,
            mapping_timeout_ms=mapping_timeout_ms,
        )

    @staticmethod
    def port_restricted_cone(mapping_timeout_ms: float = 60_000.0) -> "NatProfile":
        """Endpoint-independent mapping, address-and-port-dependent filtering."""
        return NatProfile(
            mapping=MappingPolicy.ENDPOINT_INDEPENDENT,
            filtering=FilteringPolicy.ADDRESS_PORT_DEPENDENT,
            mapping_timeout_ms=mapping_timeout_ms,
        )

    @staticmethod
    def symmetric(mapping_timeout_ms: float = 60_000.0) -> "NatProfile":
        """Address-and-port-dependent mapping and filtering (hardest to traverse)."""
        return NatProfile(
            mapping=MappingPolicy.ADDRESS_PORT_DEPENDENT,
            filtering=FilteringPolicy.ADDRESS_PORT_DEPENDENT,
            mapping_timeout_ms=mapping_timeout_ms,
            port_preservation=False,
        )


#: The canonical name -> factory mapping for the standard profiles. This is the one
#: vocabulary shared by the NAT mixtures (:mod:`repro.nat.mixture`, the
#: ``--nat-mixtures`` axis) and the per-NAT-type metric breakdowns.
NAMED_PROFILES = {
    "full_cone": NatProfile.full_cone,
    "restricted_cone": NatProfile.restricted_cone,
    "port_restricted_cone": NatProfile.port_restricted_cone,
    "symmetric": NatProfile.symmetric,
}
