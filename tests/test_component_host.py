"""Unit tests for the component model and hosts."""

from dataclasses import dataclass

import pytest

from repro.errors import NetworkError, ProtocolError
from repro.net.address import Endpoint
from repro.simulator.component import Component
from repro.simulator.message import Message, Packet


@dataclass
class Ping(Message):
    payload: int = 0

    def payload_size(self) -> int:
        return 4


@dataclass
class Pong(Message):
    payload: int = 0

    def payload_size(self) -> int:
        return 4


class EchoComponent(Component):
    """Replies to Ping with Pong and records everything it sees."""

    def __init__(self, host, port=7000):
        super().__init__(host, port, name="Echo")
        self.pings = []
        self.pongs = []
        self.unhandled = []
        self.subscribe(Ping, self._on_ping)
        self.subscribe(Pong, self._on_pong)

    def _on_ping(self, packet: Packet) -> None:
        self.pings.append(packet)
        self.send(packet.source, Pong(payload=packet.message.payload))

    def _on_pong(self, packet: Packet) -> None:
        self.pongs.append(packet)

    def on_unhandled(self, packet: Packet) -> None:
        self.unhandled.append(packet)


class TestComponentDispatch:
    def test_ping_pong_between_public_hosts(self, sim, hosts):
        a = EchoComponent(hosts.public_host())
        b = EchoComponent(hosts.public_host())
        a.start()
        b.start()
        a.send(b.self_endpoint, Ping(payload=7))
        sim.run()
        assert len(b.pings) == 1
        assert b.pings[0].message.payload == 7
        assert len(a.pongs) == 1

    def test_duplicate_handler_rejected(self, hosts):
        component = EchoComponent(hosts.public_host())
        with pytest.raises(ProtocolError):
            component.subscribe(Ping, lambda packet: None)

    def test_unstarted_component_ignores_packets(self, sim, hosts):
        a = EchoComponent(hosts.public_host())
        b = EchoComponent(hosts.public_host())
        a.start()  # b is NOT started
        a.send(b.self_endpoint, Ping())
        sim.run()
        assert b.pings == []

    def test_unhandled_message_hook(self, sim, hosts):
        @dataclass
        class Mystery(Message):
            pass

        a = EchoComponent(hosts.public_host())
        b = EchoComponent(hosts.public_host())
        a.start()
        b.start()
        a.send(b.self_endpoint, Mystery())
        sim.run()
        assert len(b.unhandled) == 1

    def test_requires_host_instance(self, sim):
        with pytest.raises(ProtocolError):
            EchoComponent("not-a-host")


class TestTimers:
    def test_periodic_timer_fires_repeatedly(self, sim, hosts):
        component = EchoComponent(hosts.public_host())
        component.start()
        fired = []
        component.schedule_periodic(100.0, lambda: fired.append(sim.now))
        sim.run(until=1000)
        assert len(fired) == 10

    def test_periodic_timer_stops_with_component(self, sim, hosts):
        component = EchoComponent(hosts.public_host())
        component.start()
        fired = []
        component.schedule_periodic(100.0, lambda: fired.append(sim.now))
        sim.run(until=350)
        component.stop()
        sim.run(until=2000)
        assert len(fired) == 3

    def test_one_shot_schedule_guarded_by_stop(self, sim, hosts):
        component = EchoComponent(hosts.public_host())
        component.start()
        fired = []
        component.schedule(100.0, lambda: fired.append(1))
        component.stop()
        sim.run()
        assert fired == []

    def test_invalid_period_rejected(self, sim, hosts):
        component = EchoComponent(hosts.public_host())
        component.start()
        with pytest.raises(ProtocolError):
            component.schedule_periodic(0.0, lambda: None)

    def test_start_idempotent(self, sim, hosts):
        component = EchoComponent(hosts.public_host())
        component.start()
        component.start()
        assert component.started


class TestHost:
    def test_bind_conflict_rejected(self, sim, hosts):
        host = hosts.public_host()
        EchoComponent(host, port=7000)
        with pytest.raises(NetworkError):
            EchoComponent(host, port=7000)

    def test_two_components_on_different_ports(self, sim, hosts):
        host_a = hosts.public_host()
        host_b = hosts.public_host()
        echo_a1 = EchoComponent(host_a, port=7000)
        echo_a2 = EchoComponent(host_a, port=8000)
        echo_b = EchoComponent(host_b, port=7000)
        for component in (echo_a1, echo_a2, echo_b):
            component.start()
        echo_b.send(Endpoint(host_a.address.endpoint.ip, 8000), Ping(payload=1))
        sim.run()
        assert len(echo_a2.pings) == 1
        assert echo_a1.pings == []

    def test_packet_to_unbound_port_is_dropped(self, sim, hosts, monitor):
        a = EchoComponent(hosts.public_host())
        b_host = hosts.public_host()
        a.start()
        a.send(Endpoint(b_host.address.endpoint.ip, 9999), Ping())
        sim.run()
        assert monitor.drop_reasons.get("unbound_port", 0) == 1

    def test_kill_stops_components_and_drops_traffic(self, sim, hosts, monitor):
        a = EchoComponent(hosts.public_host())
        b = EchoComponent(hosts.public_host())
        a.start()
        b.start()
        b.host.kill()
        assert not b.started
        a.send(b.self_endpoint, Ping())
        sim.run()
        assert b.pings == []
        assert not b.host.alive
        # the packet never reached a live host
        assert sum(monitor.drop_reasons.values()) >= 1

    def test_kill_is_idempotent(self, sim, hosts):
        host = hosts.public_host()
        EchoComponent(host).start()
        host.kill()
        host.kill()
        assert not host.alive

    def test_private_host_requires_natbox(self, sim, network):
        from repro.net.address import NatType, NodeAddress

        address = NodeAddress(
            node_id=999,
            endpoint=Endpoint("2.0.0.99", 7000),
            nat_type=NatType.PRIVATE,
            private_endpoint=Endpoint("10.0.0.99", 7000),
        )
        with pytest.raises(NetworkError):
            from repro.simulator.host import Host

            Host(sim, network, address, natbox=None)

    def test_local_endpoint_public_vs_private(self, hosts):
        public = hosts.public_host()
        private = hosts.private_host()
        assert public.local_endpoint == public.address.endpoint
        assert private.local_endpoint == private.address.private_endpoint
