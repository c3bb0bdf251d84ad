"""Integration tests: datagram delivery through the network with NAT interposition."""

from dataclasses import dataclass

import pytest

from repro.nat.types import NatProfile
from repro.simulator.component import Component
from repro.simulator.latency import ConstantLatency
from repro.simulator.loss import BernoulliLoss
from repro.simulator.message import Message, Packet
from repro.simulator.monitor import TrafficMonitor
from repro.simulator.network import Network


@dataclass
class Probe(Message):
    tag: str = ""

    def payload_size(self) -> int:
        return len(self.tag)


@dataclass
class ProbeReply(Message):
    tag: str = ""

    def payload_size(self) -> int:
        return len(self.tag)


class ProbeComponent(Component):
    def __init__(self, host, port=7000):
        super().__init__(host, port, name="Probe")
        self.received = []
        self.replies = []
        self.subscribe(Probe, self._on_probe)
        self.subscribe(ProbeReply, self._on_reply)

    def _on_probe(self, packet: Packet) -> None:
        self.received.append(packet)
        self.send(packet.source, ProbeReply(tag=packet.message.tag))

    def _on_reply(self, packet: Packet) -> None:
        self.replies.append(packet)


class TestPublicToPublic:
    def test_delivery_and_latency(self, sim, hosts):
        a = ProbeComponent(hosts.public_host())
        b = ProbeComponent(hosts.public_host())
        a.start(), b.start()
        a.send(b.self_endpoint, Probe(tag="hello"))
        sim.run()
        assert len(b.received) == 1
        # ConstantLatency(10) each way.
        assert sim.now == pytest.approx(20.0)
        assert len(a.replies) == 1

    def test_source_endpoint_is_senders(self, sim, hosts):
        a = ProbeComponent(hosts.public_host())
        b = ProbeComponent(hosts.public_host())
        a.start(), b.start()
        a.send(b.self_endpoint, Probe())
        sim.run()
        assert b.received[0].source == a.self_endpoint

    def test_unknown_destination_dropped(self, sim, hosts, monitor):
        a = ProbeComponent(hosts.public_host())
        a.start()
        from repro.net.address import Endpoint

        a.send(Endpoint("1.255.255.1", 7000), Probe())
        sim.run()
        assert monitor.drop_reasons.get("unknown_destination", 0) == 1


class TestPrivateTraversal:
    def test_unsolicited_to_private_is_filtered(self, sim, hosts, monitor):
        public = ProbeComponent(hosts.public_host())
        private = ProbeComponent(hosts.private_host())
        public.start(), private.start()
        public.send(private.self_endpoint, Probe(tag="unsolicited"))
        sim.run()
        assert private.received == []
        assert monitor.drop_reasons.get("nat_filtered", 0) == 1

    def test_reply_traverses_nat_after_outbound(self, sim, hosts):
        public = ProbeComponent(hosts.public_host())
        private = ProbeComponent(hosts.private_host())
        public.start(), private.start()
        private.send(public.self_endpoint, Probe(tag="ping"))
        sim.run()
        assert len(public.received) == 1
        # The reply goes back through the NAT to the private node.
        assert len(private.replies) == 1

    def test_observed_source_is_nat_external_endpoint(self, sim, hosts):
        public = ProbeComponent(hosts.public_host())
        private_host = hosts.private_host()
        private = ProbeComponent(private_host)
        public.start(), private.start()
        private.send(public.self_endpoint, Probe())
        sim.run()
        observed = public.received[0].source
        assert observed.ip == private_host.natbox.external_ip
        assert observed.ip != private_host.local_endpoint.ip

    def test_third_party_blocked_by_restricted_cone(self, sim, hosts, monitor):
        """After the private node talks to A, packets from B are still filtered."""
        a = ProbeComponent(hosts.public_host())
        b = ProbeComponent(hosts.public_host())
        private = ProbeComponent(hosts.private_host(profile=NatProfile.restricted_cone()))
        for c in (a, b, private):
            c.start()
        private.send(a.self_endpoint, Probe())
        sim.run()
        before = monitor.drop_reasons.get("nat_filtered", 0)
        b.send(private.self_endpoint, Probe(tag="third-party"))
        sim.run()
        assert monitor.drop_reasons.get("nat_filtered", 0) == before + 1
        assert len(private.received) == 0

    def test_third_party_allowed_by_full_cone(self, sim, hosts):
        a = ProbeComponent(hosts.public_host())
        b = ProbeComponent(hosts.public_host())
        private = ProbeComponent(hosts.private_host(profile=NatProfile.full_cone()))
        for c in (a, b, private):
            c.start()
        private.send(a.self_endpoint, Probe())
        sim.run()
        b.send(private.self_endpoint, Probe(tag="third-party"))
        sim.run()
        assert len(private.received) == 1

    def test_private_to_private_via_prior_contact(self, sim, hosts):
        """If B previously contacted A's NAT, A can reach B directly (hole punching)."""
        a_host = hosts.private_host(profile=NatProfile.restricted_cone())
        b_host = hosts.private_host(profile=NatProfile.restricted_cone())
        a = ProbeComponent(a_host)
        b = ProbeComponent(b_host)
        a.start(), b.start()
        # B sends to A's external endpoint first (dropped at A's NAT, but it opens
        # B's own mapping towards A's NAT address).
        b.send(a.self_endpoint, Probe(tag="punch"))
        sim.run()
        assert a.received == []
        # Now A sends to B: B's NAT has contacted A's NAT IP, so it is accepted.
        a.send(b.self_endpoint, Probe(tag="direct"))
        sim.run()
        assert len(b.received) == 1

    def test_mapping_timeout_closes_the_path(self, sim, hosts):
        profile = NatProfile.restricted_cone(mapping_timeout_ms=1_000.0)
        public = ProbeComponent(hosts.public_host())
        private = ProbeComponent(hosts.private_host(profile=profile))
        public.start(), private.start()
        private.send(public.self_endpoint, Probe())
        sim.run()
        assert len(private.replies) == 1
        # Wait beyond the mapping timeout, then try to reach the private node again.
        sim.run(until=sim.now + 5_000.0)
        public.send(private.self_endpoint, Probe(tag="late"))
        sim.run()
        assert len(private.received) == 0


class RecordingLatency(ConstantLatency):
    """Constant latency that records the (src, dst) integer endpoint keys it is asked for."""

    def __init__(self, delay_ms: float = 10.0):
        super().__init__(delay_ms)
        self.pairs = []

    def latency(self, src_id: int, dst_id: int) -> float:
        self.pairs.append((src_id, dst_id))
        return self.delay_ms


class TestCachedEndpointRouting:
    """The pre-parsed IP cache must not change what the latency model observes.

    ``Network.send`` no longer parses address strings per packet; it resolves both
    endpoints through a cache warmed at host registration. These tests pin down the
    wire semantics: NAT-translated packets still resolve latency from the NAT's
    *external* IP, and registration/unregistration/churn keep routing correct.
    """

    @staticmethod
    def _build(sim):
        from tests.conftest import HostFactory

        latency = RecordingLatency(10.0)
        network = Network(sim, latency_model=latency, monitor=TrafficMonitor())
        return latency, network, HostFactory(sim, network)

    def test_registration_prewarms_the_parse_cache(self, sim):
        from repro.net.address import _PARSE_CACHE, parse_ipv4

        _, network, factory = self._build(sim)
        public = factory.public_host()
        private = factory.private_host()
        # Registration resolves both routable IPs through the memoised parser, so
        # the first packet's latency lookup is a dict hit, not a string parse.
        assert _PARSE_CACHE[public.address.endpoint.ip] == parse_ipv4(
            public.address.endpoint.ip
        )
        assert _PARSE_CACHE[private.natbox.external_ip] == parse_ipv4(
            private.natbox.external_ip
        )

    def test_nat_translated_packet_uses_external_ip_for_latency(self, sim):
        from repro.net.address import parse_ipv4

        latency, _, factory = self._build(sim)
        public = ProbeComponent(factory.public_host())
        private_host = factory.private_host()
        private = ProbeComponent(private_host)
        public.start(), private.start()
        private.send(public.self_endpoint, Probe(tag="out"))
        sim.run()
        external = parse_ipv4(private_host.natbox.external_ip)
        internal = parse_ipv4(private_host.local_endpoint.ip)
        target = parse_ipv4(public.address.endpoint.ip)
        # Outbound: latency keyed on the NAT's external IP, never the private one.
        assert latency.pairs[0] == (external, target)
        assert all(internal not in pair for pair in latency.pairs)
        # The reply is keyed back towards the NAT's external IP.
        assert latency.pairs[1] == (target, external)
        assert len(private.replies) == 1

    def test_unregistered_host_stops_routing_despite_cached_parse(self, sim):
        _, network, factory = self._build(sim)
        a = ProbeComponent(factory.public_host())
        b = ProbeComponent(factory.public_host())
        a.start(), b.start()
        b_endpoint = b.self_endpoint
        b.host.kill()  # unregisters from the network; the pure parse cache may remain
        a.send(b_endpoint, Probe(tag="late"))
        sim.run()
        assert b.received == []
        assert network.monitor.drop_reasons.get("unknown_destination", 0) == 1

    def test_churned_private_node_routes_correctly_after_rejoin(self, sim):
        """Kill a private node, attach a fresh one behind the same NAT box: the cached
        endpoint keys must keep resolving latency from the (unchanged) external IP."""
        from repro.net.address import parse_ipv4

        latency, _, factory = self._build(sim)
        public = ProbeComponent(factory.public_host())
        first_host = factory.private_host()
        first = ProbeComponent(first_host)
        public.start(), first.start()
        first.send(public.self_endpoint, Probe(tag="first"))
        sim.run()
        assert len(public.received) == 1

        first_host.kill()
        from repro.net.address import Endpoint, NatType, NodeAddress
        from repro.simulator.host import Host

        rejoined_address = NodeAddress(
            node_id=first_host.node_id + 100_000,
            endpoint=Endpoint(first_host.natbox.external_ip, 7000),
            nat_type=NatType.PRIVATE,
            private_endpoint=Endpoint("10.9.9.9", 7000),
        )
        rejoined = ProbeComponent(
            Host(sim, public.host.network, rejoined_address, natbox=first_host.natbox)
        )
        rejoined.start()
        latency.pairs.clear()
        rejoined.send(public.self_endpoint, Probe(tag="rejoined"))
        sim.run()
        assert len(public.received) == 2
        external = parse_ipv4(first_host.natbox.external_ip)
        assert latency.pairs[0][0] == external
        assert len(rejoined.replies) == 1

    def test_send_to_unseen_destination_fills_cache_on_demand(self, sim):
        from repro.net.address import _PARSE_CACHE, Endpoint, parse_ipv4

        _, network, factory = self._build(sim)
        a = ProbeComponent(factory.public_host())
        a.start()
        unknown = Endpoint("9.9.9.9", 7000)
        a.send(unknown, Probe(tag="void"))
        sim.run()
        # Never registered, so the packet is dropped — but the latency lookup that
        # preceded the drop cached the parsed endpoint on demand.
        assert _PARSE_CACHE["9.9.9.9"] == parse_ipv4("9.9.9.9")
        assert network.monitor.drop_reasons.get("unknown_destination", 0) == 1


class TestLossAndAccounting:
    def test_full_loss_blocks_delivery(self, sim):
        monitor = TrafficMonitor()
        network = Network(
            sim, latency_model=ConstantLatency(5.0), loss_model=BernoulliLoss(1.0), monitor=monitor
        )
        from tests.conftest import HostFactory

        factory = HostFactory(sim, network)
        a = ProbeComponent(factory.public_host())
        b = ProbeComponent(factory.public_host())
        a.start(), b.start()
        a.send(b.self_endpoint, Probe())
        sim.run()
        assert b.received == []
        assert monitor.drop_reasons.get("link_loss", 0) == 1

    def test_monitor_counts_bytes_both_sides(self, sim, hosts, monitor):
        a = ProbeComponent(hosts.public_host())
        b = ProbeComponent(hosts.public_host())
        a.start(), b.start()
        a.send(b.self_endpoint, Probe(tag="xyz"))
        sim.run()
        a_traffic = monitor.node_traffic(a.address.node_id)
        b_traffic = monitor.node_traffic(b.address.node_id)
        probe_size = Probe(tag="xyz").wire_size
        reply_size = ProbeReply(tag="xyz").wire_size
        assert a_traffic.tx_bytes == probe_size
        assert a_traffic.rx_bytes == reply_size
        assert b_traffic.rx_bytes == probe_size
        assert b_traffic.tx_bytes == reply_size

    def test_dead_host_drops_packets(self, sim, hosts, monitor):
        a = ProbeComponent(hosts.public_host())
        b = ProbeComponent(hosts.public_host())
        a.start(), b.start()
        b.host.kill()
        a.send(b.self_endpoint, Probe())
        sim.run()
        assert sum(monitor.drop_reasons.values()) >= 1
        assert b.received == []

    def test_network_packet_counters(self, sim, hosts):
        a = ProbeComponent(hosts.public_host())
        b = ProbeComponent(hosts.public_host())
        a.start(), b.start()
        a.send(b.self_endpoint, Probe())
        sim.run()
        assert a.host.network.packets_sent == 2  # probe + reply
        assert a.host.network.packets_delivered == 2
