"""The simulated datagram network with NAT interposition.

Every packet goes through the same pipeline, which mirrors what a UDP datagram
experiences on the real Internet path the paper's protocols care about:

1. **Outbound translation.** If the sender is behind a NAT, the NAT box allocates (or
   refreshes) a mapping and the packet's wire source becomes the NAT's external
   endpoint. This is how receivers observe private senders — exactly the observation
   Croupier's NAT-type identification protocol and ratio estimator rely on.
2. **Loss.** The configured :class:`~repro.simulator.loss.LossModel` may silently drop
   the packet.
3. **Latency.** The configured :class:`~repro.simulator.latency.LatencyModel` assigns a
   one-way delay and the delivery is scheduled on the simulator.
4. **Inbound filtering.** If the destination IP belongs to a NAT box, the box checks its
   mapping table and filtering policy; packets with no matching mapping are dropped
   (this is what makes private nodes unreachable for unsolicited traffic). Otherwise the
   destination is a public host and the packet is delivered directly.
5. **Dispatch.** The receiving host hands the packet to the component bound on the
   destination port.

All traffic is accounted in a :class:`~repro.simulator.monitor.TrafficMonitor`.

Per-packet cost contract
------------------------
Gozar and Nylon push about ten packets per node and round through this pipeline, so
what one packet costs is what the object engine costs on the paper's NAT cells:

* No step does work proportional to the length of the run, the size of a NAT box's
  binding table or the number of remotes a binding has contacted. A
  :class:`~repro.nat.nat_box.NatBox` looks for idle bindings only once the clock
  passes a lower bound on the earliest possible expiry, and filters inbound packets
  with one hash lookup in the binding's ``remote ip -> ports`` index.
* :meth:`send` reads a message's size once (:attr:`Message.wire_size` caches it)
  and hands it to the monitor and, in :attr:`Packet.size`, to the receiver's record.
* A hop allocates two objects: the :class:`Packet` and the simulator's event handle
  (delivery through a NAT allocates one more ``Packet``, rewritten to the internal
  destination). Source endpoints, a binding's external endpoint, the destination
  endpoint and a node's keep-alive messages are existing objects, not built per packet.
* A hop runs a fixed set of Python frames: ``Component.send`` calls :meth:`send`
  directly, and the event loop fires :meth:`_deliver` inline.
  ``tests/test_nat_box.py::TestPacketPathCost`` bounds the calls per packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.errors import NetworkError
from repro.net.address import Endpoint, parse_ipv4
from repro.simulator.core import Simulator
from repro.simulator.host import Host
from repro.simulator.latency import ConstantLatency, LatencyModel
from repro.simulator.loss import LossModel, NoLoss
from repro.simulator.message import Message, Packet
from repro.simulator.monitor import TrafficMonitor

if TYPE_CHECKING:  # pragma: no cover - repro.nat imports this package
    from repro.nat.nat_box import NatBox


class Network:
    """UDP-like datagram delivery between hosts, with NAT and firewall interposition."""

    def __init__(
        self,
        sim: Simulator,
        latency_model: Optional[LatencyModel] = None,
        loss_model: Optional[LossModel] = None,
        monitor: Optional[TrafficMonitor] = None,
    ) -> None:
        self.sim = sim
        self.latency_model = latency_model or ConstantLatency(50.0)
        self.loss_model = loss_model or NoLoss()
        self.monitor = monitor or TrafficMonitor()
        self.rng = sim.derive_rng("network")
        # Maps an IP address to whatever answers for it: a public Host or a NAT box.
        self._ip_table: Dict[str, Union[Host, "NatBox"]] = {}
        self._packets_sent = 0
        self._packets_delivered = 0
        # Optional network split (the workload timeline's Partition event): when set,
        # packets whose source and destination wire IPs sit on different sides are
        # dropped. ``None`` — the default, and the only state the paper's experiments
        # use — costs one identity check per send.
        self.partition: Optional["NetworkPartition"] = None

    # ------------------------------------------------------------------ registration

    def register_host(self, host: Host) -> None:
        """Attach a host to the network.

        Public hosts claim their own IP address. Private hosts are attached *behind*
        their NAT box; the NAT box claims its external IP (idempotently, so several
        private hosts can share one NAT).
        """
        if host.natbox is None:
            ip = host.address.endpoint.ip
            existing = self._ip_table.get(ip)
            if existing is not None and existing is not host:
                raise NetworkError(f"IP {ip} already registered to {existing!r}")
            self._ip_table[ip] = host
            # Warm the shared parse_ipv4 memo so the first packet pays no parse.
            parse_ipv4(ip)
        else:
            natbox = host.natbox
            existing = self._ip_table.get(natbox.external_ip)
            if existing is None:
                self._ip_table[natbox.external_ip] = natbox
            elif existing is not natbox:
                raise NetworkError(
                    f"external IP {natbox.external_ip} already registered to {existing!r}"
                )
            natbox.attach_host(host)
            # Latency is always resolved from the NAT's *external* IP (the wire
            # source after outbound translation), so that is what we pre-parse.
            parse_ipv4(natbox.external_ip)

    def unregister_host(self, host: Host) -> None:
        """Detach a (failed) host. NAT boxes stay registered; they just lead nowhere."""
        if host.natbox is None:
            current = self._ip_table.get(host.address.endpoint.ip)
            if current is host:
                del self._ip_table[host.address.endpoint.ip]
        else:
            host.natbox.detach_host(host)

    # ------------------------------------------------------------------ sending

    def send(self, host: Host, src_port: int, destination: Endpoint, message: Message) -> None:
        """Send one datagram. See the module docstring for the pipeline."""
        if not host.alive:
            return
        now = self.sim.now
        internal_source = host.source_endpoint(src_port)
        natbox = host.natbox
        if natbox is not None:
            wire_source = natbox.translate_outbound(internal_source, destination, now)
            if wire_source is None:
                self.monitor.record_drop("nat_allocation_failed")
                return
        else:
            wire_source = internal_source

        sender = host.address
        size = message.wire_size
        self.monitor.record_sent(sender, message, size)
        self._packets_sent += 1

        if self.loss_model.should_drop(self.rng, sender, destination.ip):
            self.monitor.record_drop("link_loss")
            return

        if self.partition is not None and self.partition.blocks(
            wire_source.ip, destination.ip
        ):
            self.monitor.record_drop("partitioned")
            return

        # parse_ipv4 is memoised, so both lookups are dict hits: no string parsing
        # on the per-packet path.
        delay = self.latency_model.latency(
            parse_ipv4(wire_source.ip), parse_ipv4(destination.ip)
        )
        # A direct (callback, arg) event slot, no per-packet closure; schedule_at
        # rather than schedule, whose only extra work is this addition.
        self.sim.schedule_at(
            now + delay,
            self._deliver,
            Packet(wire_source, destination, message, sender, now, size),
        )

    # ------------------------------------------------------------------ delivery

    def _deliver(self, packet: Packet) -> None:
        target = self._ip_table.get(packet.destination.ip)
        if target is None:
            self.monitor.record_drop("unknown_destination")
            return
        if isinstance(target, Host):
            self._packets_delivered += 1
            target.deliver(packet)
            return
        # The destination IP belongs to a NAT box: apply inbound filtering.
        internal = target.accept_inbound(packet.source, packet.destination, self.sim.now)
        if internal is None:
            self.monitor.record_drop("nat_filtered")
            return
        inner_host = target.host_for(internal)
        if inner_host is None or not inner_host.alive:
            self.monitor.record_drop("dead_host")
            return
        rewritten = Packet(
            packet.source, internal, packet.message, packet.sender, packet.sent_at, packet.size
        )
        self._packets_delivered += 1
        inner_host.deliver(rewritten)

    # ------------------------------------------------------------------ stats

    @property
    def packets_sent(self) -> int:
        return self._packets_sent

    @property
    def packets_delivered(self) -> int:
        return self._packets_delivered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(hosts={len(self._ip_table)}, sent={self._packets_sent}, "
            f"delivered={self._packets_delivered})"
        )


class NetworkPartition:
    """A two-sided network split over wire IPs (installed by the Partition event).

    ``isolated`` holds one side's external IPs (a NAT'ed node's side is decided by
    its gateway's external IP — the address its packets actually travel under). IPs
    never assigned to a side (e.g. nodes that joined after the split) are treated as
    the majority side, so a partition only ever blocks traffic it explicitly named.
    """

    __slots__ = ("isolated",)

    def __init__(self, isolated) -> None:
        self.isolated = frozenset(isolated)

    def blocks(self, source_ip: str, destination_ip: str) -> bool:
        return (source_ip in self.isolated) != (destination_ip in self.isolated)
