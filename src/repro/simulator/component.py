"""The protocol building block: a component bound to a port on a host.

This mirrors the Kompics component model the paper's implementation used, reduced to the
features the reproduced protocols actually need:

* message handlers registered per message type (:meth:`Component.subscribe`),
* one-shot and periodic timers (:meth:`Component.schedule`,
  :meth:`Component.schedule_periodic`),
* a start/stop lifecycle tied to the owning host — killing a host (churn, catastrophic
  failure) stops all of its components and cancels their timers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

from repro.errors import ProtocolError
from repro.net.address import Endpoint, NodeAddress
from repro.simulator.core import EventHandle
from repro.simulator.message import Message, Packet


class PeriodicTimer:
    """A repeating timer owned by a component.

    The timer re-arms itself after every firing until cancelled. An optional jitter adds
    a uniformly distributed offset to each period, which protocols use to desynchronise
    gossip rounds across nodes (all nodes run rounds at "roughly the same rate, subject
    to clock skew", as the paper puts it).
    """

    def __init__(
        self,
        component: "Component",
        period_ms: float,
        callback: Callable[[], None],
        jitter_ms: float = 0.0,
    ) -> None:
        if period_ms <= 0:
            raise ProtocolError(f"timer period must be positive, got {period_ms}")
        self.component = component
        self.period_ms = period_ms
        self.callback = callback
        self.jitter_ms = jitter_ms
        self.cancelled = False
        self._handle: Optional[EventHandle] = None

    def start(self, initial_delay_ms: Optional[float] = None) -> None:
        delay = self.period_ms if initial_delay_ms is None else initial_delay_ms
        self._arm(delay)

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _arm(self, delay_ms: float) -> None:
        if self.cancelled:
            return
        jitter = 0.0
        if self.jitter_ms > 0:
            jitter = self.component.rng.uniform(0.0, self.jitter_ms)
        self._handle = self.component.sim.schedule(delay_ms + jitter, self._fire)

    def _fire(self) -> None:
        if self.cancelled or not self.component.started:
            return
        try:
            self.callback()
        finally:
            self._arm(self.period_ms)


class Component:
    """Base class for every protocol in the reproduction.

    A component lives on a :class:`~repro.simulator.host.Host`, is bound to a UDP port,
    and exchanges :class:`~repro.simulator.message.Message` objects with components on
    other hosts through the simulated network.

    Subclasses typically:

    1. call :meth:`subscribe` in ``__init__`` for each message type they handle,
    2. override :meth:`on_start` to arm their gossip round timer,
    3. call :meth:`send` from handlers and timer callbacks.
    """

    def __init__(self, host: "Host", port: int, name: Optional[str] = None) -> None:  # noqa: F821
        from repro.simulator.host import Host  # local import to avoid a cycle

        if not isinstance(host, Host):
            raise ProtocolError(f"expected a Host, got {type(host).__name__}")
        self.host = host
        self.sim = host.sim
        self.port = port
        self.name = name or type(self).__name__
        self.rng = self.sim.derive_rng(self.name, host.address.node_id, port)
        self.started = False
        self._handlers: Dict[Type[Message], Callable[[Packet], None]] = {}
        self._timers: List[PeriodicTimer] = []
        self._scheduled_events: List[EventHandle] = []
        host.bind(port, self)

    # ------------------------------------------------------------------ identity

    @property
    def address(self) -> NodeAddress:
        """The owning host's node address."""
        return self.host.address

    @property
    def self_endpoint(self) -> Endpoint:
        """The endpoint other nodes should use to reach this component."""
        return Endpoint(self.host.address.endpoint.ip, self.port)

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start the component. Idempotent."""
        if self.started:
            return
        self.started = True
        self.on_start()

    def stop(self) -> None:
        """Stop the component, cancelling every timer and pending callback."""
        if not self.started:
            return
        self.started = False
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for handle in self._scheduled_events:
            handle.cancel()
        self._scheduled_events.clear()
        self.on_stop()

    def on_start(self) -> None:
        """Hook for subclasses; called once when the component starts."""

    def on_stop(self) -> None:
        """Hook for subclasses; called once when the component stops."""

    # ------------------------------------------------------------------ messaging

    def subscribe(self, message_type: Type[Message], handler: Callable[[Packet], None]) -> None:
        """Register ``handler`` for packets whose message is of ``message_type``."""
        if message_type in self._handlers:
            raise ProtocolError(
                f"{self.name}: duplicate handler for {message_type.__name__}"
            )
        self._handlers[message_type] = handler

    def handle_packet(self, packet: Packet) -> None:
        """Dispatch an incoming packet to the registered handler (if any)."""
        if not self.started:
            return
        handler = self._handlers.get(type(packet.message))
        if handler is None:
            self.on_unhandled(packet)
            return
        handler(packet)

    def on_unhandled(self, packet: Packet) -> None:
        """Called for packets with no registered handler. Default: ignore silently."""

    def send(self, destination: Endpoint, message: Message) -> None:
        """Send ``message`` to ``destination`` through the simulated network."""
        host = self.host
        host.network.send(host, self.port, destination, message)

    def send_to_node(self, destination: NodeAddress, message: Message) -> None:
        """Send to a node's protocol port (same port number as this component)."""
        endpoint = destination.endpoint
        if endpoint.port != self.port:
            endpoint = endpoint.with_port(self.port)
        host = self.host
        host.network.send(host, self.port, endpoint, message)

    # ------------------------------------------------------------------ timers

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay_ms`` unless the component stops first."""

        def guarded() -> None:
            if self.started:
                callback()

        handle = self.sim.schedule(delay_ms, guarded)
        self._scheduled_events.append(handle)
        if len(self._scheduled_events) > 256:
            self._scheduled_events = [h for h in self._scheduled_events if not h.cancelled and h.callback]
        return handle

    def schedule_periodic(
        self,
        period_ms: float,
        callback: Callable[[], None],
        jitter_ms: float = 0.0,
        initial_delay_ms: Optional[float] = None,
    ) -> PeriodicTimer:
        """Arm a repeating timer; it is cancelled automatically when the component stops."""
        timer = PeriodicTimer(self, period_ms, callback, jitter_ms=jitter_ms)
        self._timers.append(timer)
        timer.start(initial_delay_ms)
        return timer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}(node={self.host.address.node_id}, port={self.port})"
