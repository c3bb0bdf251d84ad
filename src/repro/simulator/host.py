"""A simulated machine: components bound to ports, optionally behind a NAT.

Hosts are the unit of churn in the experiments. Joining a node means creating a host,
registering it with the network and starting its components; a node leaving or failing
means calling :meth:`Host.kill`, which stops every component (cancelling their timers)
and makes the network drop any packet still in flight towards it.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.errors import NetworkError
from repro.net.address import Endpoint, NodeAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nat.nat_box import NatBox
    from repro.simulator.component import Component
    from repro.simulator.core import Simulator
    from repro.simulator.message import Packet
    from repro.simulator.network import Network


class Host:
    """A node's machine in the simulation.

    Parameters
    ----------
    sim:
        The simulator that owns the virtual clock.
    network:
        The network the host attaches to. The constructor registers the host (and its
        NAT box, if any) with the network.
    address:
        The node's :class:`~repro.net.address.NodeAddress`. For a private node the
        address's ``endpoint`` must carry the NAT's external IP, and ``private_endpoint``
        the host's own private IP.
    natbox:
        The :class:`~repro.nat.nat_box.NatBox` this host sits behind, or ``None`` for a
        public host.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        address: NodeAddress,
        natbox: Optional["NatBox"] = None,
    ) -> None:
        if address.is_private and natbox is None:
            raise NetworkError(
                f"private node {address.node_id} must be created with a NAT box"
            )
        if address.is_private and address.private_endpoint is None:
            raise NetworkError(
                f"private node {address.node_id} must have a private_endpoint"
            )
        self.sim = sim
        self.network = network
        self.address = address
        self.natbox = natbox
        self.alive = True
        self.components: Dict[int, "Component"] = {}
        # Per-port source endpoints, built once instead of per packet. The cache stays
        # valid for the host's lifetime: NAT-type identification swaps the address for
        # one with the same endpoints (with_nat_type), and a host that rejoins after a
        # failure is a brand-new Host object.
        self._source_endpoints: Dict[int, Endpoint] = {}
        network.register_host(self)

    # ------------------------------------------------------------------ identity

    @property
    def node_id(self) -> int:
        return self.address.node_id

    @property
    def local_endpoint(self) -> Endpoint:
        """The endpoint the host itself binds sockets on.

        Public hosts bind on their globally reachable address; private hosts bind on
        their private address (the NAT rewrites it on the way out).
        """
        if self.address.private_endpoint is not None:
            return self.address.private_endpoint
        return self.address.endpoint

    def source_endpoint(self, src_port: int) -> Endpoint:
        """The (cached) endpoint a datagram sent from ``src_port`` originates from."""
        endpoint = self._source_endpoints.get(src_port)
        if endpoint is None:
            endpoint = Endpoint(self.local_endpoint.ip, src_port)
            self._source_endpoints[src_port] = endpoint
        return endpoint

    # ------------------------------------------------------------------ components

    def bind(self, port: int, component: "Component") -> None:
        """Attach a component to a UDP port. One component per port."""
        if port in self.components:
            raise NetworkError(
                f"node {self.node_id}: port {port} already bound to "
                f"{self.components[port].name}"
            )
        self.components[port] = component

    # ------------------------------------------------------------------ messaging

    def deliver(self, packet: "Packet") -> None:
        """Deliver an incoming packet to the component bound on the destination port."""
        if not self.alive:
            self.network.monitor.record_drop("dead_host")
            return
        component = self.components.get(packet.destination.port)
        if component is None:
            self.network.monitor.record_drop("unbound_port")
            return
        self.network.monitor.record_received(self.address, packet.message, packet.size)
        component.handle_packet(packet)

    # ------------------------------------------------------------------ lifecycle

    def kill(self) -> None:
        """Fail the host: stop all components and stop accepting packets.

        Used by the churn and catastrophic-failure workloads. The host's NAT box keeps
        its mapping state (a real NAT would too), but since the host no longer answers,
        that state is inert.
        """
        if not self.alive:
            return
        self.alive = False
        for component in list(self.components.values()):
            component.stop()
        self.network.unregister_host(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "down"
        return f"Host(node={self.node_id}, {self.address.nat_type.value}, {status})"
