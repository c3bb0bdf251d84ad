"""Message-based bootstrap server and client components."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro import wire
from repro.bootstrap.registry import BootstrapRegistry
from repro.constants import BOOTSTRAP_CLIENT_PORT, BOOTSTRAP_PORT
from repro.net.address import Endpoint, NodeAddress
from repro.simulator.component import Component
from repro.simulator.host import Host
from repro.simulator.message import Message, Packet


@dataclass
class BootstrapRequest(Message):
    """A joining node asking the bootstrap server for public nodes."""

    origin: NodeAddress
    count: int = 5

    def payload_size(self) -> int:
        return wire.bootstrap_request()


@dataclass
class BootstrapResponse(Message):
    """The bootstrap server's answer: a random subset of known public nodes."""

    nodes: Tuple[NodeAddress, ...] = field(default_factory=tuple)

    def payload_size(self) -> int:
        return wire.bootstrap_response(len(self.nodes))


class BootstrapServer(Component):
    """Serves the :class:`BootstrapRegistry` over the simulated network.

    The server also *learns* from requests: a public node that contacts the bootstrap
    server is added to the registry, so the directory fills up as nodes join — the same
    behaviour a deployed tracker-style bootstrap service exhibits.
    """

    def __init__(
        self,
        host: Host,
        registry: Optional[BootstrapRegistry] = None,
        port: int = BOOTSTRAP_PORT,
    ) -> None:
        super().__init__(host, port, name="BootstrapServer")
        self.registry = registry if registry is not None else BootstrapRegistry()
        self.requests_served = 0
        self.subscribe(BootstrapRequest, self._on_request)

    def _on_request(self, packet: Packet) -> None:
        message = packet.message
        assert isinstance(message, BootstrapRequest)
        self.registry.register(message.origin)
        nodes = self.registry.sample(message.count, exclude_id=message.origin.node_id)
        self.requests_served += 1
        self.send(packet.source, BootstrapResponse(nodes=tuple(nodes)))


class BootstrapClient(Component):
    """Node-side component: one request, one callback with the returned addresses."""

    def __init__(
        self,
        host: Host,
        server_endpoint: Endpoint,
        port: int = BOOTSTRAP_CLIENT_PORT,
    ) -> None:
        super().__init__(host, port, name="BootstrapClient")
        self.server_endpoint = server_endpoint
        self.last_response: Optional[Tuple[NodeAddress, ...]] = None
        self._callback: Optional[Callable[[Tuple[NodeAddress, ...]], None]] = None
        self.subscribe(BootstrapResponse, self._on_response)

    def request(
        self,
        count: int = 5,
        callback: Optional[Callable[[Tuple[NodeAddress, ...]], None]] = None,
    ) -> None:
        """Ask the bootstrap server for up to ``count`` public nodes."""
        if not self.started:
            self.start()
        self._callback = callback
        self.send(self.server_endpoint, BootstrapRequest(origin=self.address, count=count))

    def _on_response(self, packet: Packet) -> None:
        message = packet.message
        assert isinstance(message, BootstrapResponse)
        self.last_response = message.nodes
        if self._callback is not None:
            callback, self._callback = self._callback, None
            callback(message.nodes)
