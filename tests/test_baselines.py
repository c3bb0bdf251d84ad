"""Tests for the baseline peer-sampling protocols: Cyclon, Nylon, Gozar."""

from collections import defaultdict

import pytest

from repro.membership.base import PssConfig
from repro.membership.cyclon import Cyclon
from repro.membership.gozar import Gozar, GozarConfig
from repro.membership.nylon import Nylon, NylonConfig
from repro.nat.traversal import KeepAlive, KeepAliveAck
from repro.net.address import NatType
from repro.workload.scenario import Scenario, ScenarioConfig


def quiet(config_cls, **kwargs):
    return config_cls(start_delay_max_ms=0.0, round_jitter_ms=0.0, **kwargs)


class TestCyclon:
    def test_two_nodes_exchange_descriptors(self, sim, hosts):
        a = Cyclon(hosts.public_host(), quiet(PssConfig))
        b = Cyclon(hosts.public_host(), quiet(PssConfig))
        c_address = hosts.public_host().address
        a.initialize_view([b.address, c_address])
        b.initialize_view([a.address])
        a.start(), b.start()
        sim.run(until=3_500)
        assert a.stats.shuffle_responses_received >= 1
        assert b.stats.shuffle_requests_handled >= 1
        # b should have learned about c through a's shuffle subsets eventually
        assert len(b.view) >= 1

    def test_sample_comes_from_view(self, sim, hosts):
        a = Cyclon(hosts.public_host(), quiet(PssConfig))
        seed = hosts.public_host().address
        a.initialize_view([seed])
        assert a.sample() == seed

    def test_empty_view_skips_round(self, sim, hosts):
        a = Cyclon(hosts.public_host(), quiet(PssConfig))
        a.start()
        sim.run(until=2_500)
        assert a.stats.rounds_skipped_empty_view == a.stats.rounds

    def test_cyclon_is_nat_oblivious(self, sim, hosts, monitor):
        """Shuffles aimed at a private node are silently filtered by its NAT."""
        a = Cyclon(hosts.public_host(), quiet(PssConfig))
        private = Cyclon(hosts.private_host(), quiet(PssConfig))
        a.initialize_view([private.address])
        a.start(), private.start()
        sim.run(until=2_500)
        assert private.stats.shuffle_requests_handled == 0
        assert monitor.drop_reasons.get("nat_filtered", 0) >= 1


class TestNylon:
    def _small_system(self, sim, hosts, n_public=3, n_private=3):
        config = quiet(NylonConfig)
        nodes = [Nylon(hosts.public_host(), config) for _ in range(n_public)]
        nodes += [Nylon(hosts.private_host(), config) for _ in range(n_private)]
        publics = [n.address for n in nodes if n.address.is_public]
        for node in nodes:
            node.initialize_view([a for a in publics if a.node_id != node.address.node_id])
            node.start()
        return nodes

    def test_private_nodes_complete_shuffles(self, sim, hosts):
        nodes = self._small_system(sim, hosts)
        sim.run(until=30_000)
        private_nodes = [n for n in nodes if n.address.is_private]
        assert all(n.stats.shuffle_responses_received > 0 for n in private_nodes)

    def test_rvp_table_learns_descriptor_origins(self, sim, hosts):
        nodes = self._small_system(sim, hosts)
        sim.run(until=10_000)
        assert any(len(n.rvp_table) > 0 for n in nodes)

    def test_private_nodes_appear_in_views(self, sim, hosts):
        nodes = self._small_system(sim, hosts)
        sim.run(until=30_000)
        private_ids = {n.address.node_id for n in nodes if n.address.is_private}
        seen_private = set()
        for node in nodes:
            for address in node.neighbor_addresses():
                if address.node_id in private_ids:
                    seen_private.add(address.node_id)
        assert len(seen_private) >= 2

    def test_keepalives_are_sent_by_private_nodes(self, sim, hosts, monitor):
        nodes = self._small_system(sim, hosts)
        sim.run(until=10_000)
        keepalive_bytes = 0
        for node in nodes:
            if node.address.is_private:
                traffic = monitor.node_traffic(node.address.node_id)
                keepalive_bytes += traffic.tx_by_type.get("KeepAlive", 0)
        assert keepalive_bytes > 0

    def test_hole_punch_without_rvp_is_counted(self, sim, hosts):
        config = quiet(NylonConfig)
        initiator = Nylon(hosts.public_host(), config)
        target = Nylon(hosts.private_host(), config)
        # initiator knows the private target but has no RVP route towards it.
        initiator.initialize_view([target.address])
        initiator.start(), target.start()
        sim.run(until=1_500)
        assert initiator.stats.extra.get("shuffles_without_rvp", 0) >= 1


class TestGozar:
    def _small_system(self, sim, hosts, n_public=3, n_private=3):
        config = quiet(GozarConfig, parent_keepalive_every_rounds=2)
        nodes = [Gozar(hosts.public_host(), config) for _ in range(n_public)]
        nodes += [Gozar(hosts.private_host(), config) for _ in range(n_private)]
        publics = [n.address for n in nodes if n.address.is_public]
        for node in nodes:
            node.initialize_view([a for a in publics if a.node_id != node.address.node_id])
            node.start()
        return nodes

    def test_private_nodes_register_parents(self, sim, hosts):
        nodes = self._small_system(sim, hosts)
        sim.run(until=10_000)
        private_nodes = [n for n in nodes if n.address.is_private]
        assert all(len(n.parent_addresses()) > 0 for n in private_nodes)
        public_nodes = [n for n in nodes if n.address.is_public]
        assert sum(len(n._children) for n in public_nodes) >= len(private_nodes)

    def test_descriptors_of_private_nodes_carry_parents(self, sim, hosts):
        nodes = self._small_system(sim, hosts)
        sim.run(until=20_000)
        found_with_parents = False
        for node in nodes:
            for descriptor in node.view:
                if descriptor.address.is_private and descriptor.parents:
                    found_with_parents = True
        assert found_with_parents

    def test_private_nodes_complete_relayed_shuffles(self, sim, hosts):
        nodes = self._small_system(sim, hosts)
        sim.run(until=30_000)
        private_nodes = [n for n in nodes if n.address.is_private]
        assert all(n.stats.shuffle_responses_received > 0 for n in private_nodes)
        relays = sum(n.stats.extra.get("relayed_messages", 0) for n in nodes)
        assert relays > 0

    def test_public_nodes_do_not_register_parents(self, sim, hosts):
        nodes = self._small_system(sim, hosts)
        sim.run(until=5_000)
        assert all(
            not n.parent_addresses() for n in nodes if n.address.is_public
        )


@pytest.mark.parametrize(
    "protocol, config",
    [
        (Nylon, quiet(NylonConfig)),
        (Gozar, quiet(GozarConfig, parent_keepalive_every_rounds=2)),
    ],
)
def test_a_node_sends_one_keepalive_instance_until_its_address_changes(
    sim, hosts, network, protocol, config
):
    nodes = [protocol(hosts.public_host(), config) for _ in range(3)]
    nodes += [protocol(hosts.private_host(), config) for _ in range(3)]
    publics = [n.address for n in nodes if n.address.is_public]
    for node in nodes:
        node.initialize_view([a for a in publics if a.node_id != node.address.node_id])
        node.start()
    sent = defaultdict(list)
    send = network.send

    def recording(host, src_port, destination, message):
        if type(message) in (KeepAlive, KeepAliveAck):
            sent[host.address.node_id, type(message)].append(message)
        send(host, src_port, destination, message)

    network.send = recording
    sim.run(until=10_000)
    assert {kind for _, kind in sent} == {KeepAlive, KeepAliveAck}
    by_id = {node.address.node_id: node for node in nodes}
    for (node_id, _), messages in sent.items():
        assert len(messages) > 1
        assert all(message is messages[0] for message in messages)
        assert messages[0].origin is by_id[node_id].address

    private = next(n for n in nodes if n.address.is_private and sent[n.address.node_id, KeepAlive])
    before = sent[private.address.node_id, KeepAlive][0]
    private.host.address = private.address.with_nat_type(NatType.PRIVATE)
    sent.clear()
    sim.run(until=20_000)
    after = sent[private.address.node_id, KeepAlive]
    assert after and all(message is after[0] for message in after)
    assert after[0] is not before and after[0].origin is private.host.address


class TestScenarioIntegrationForBaselines:
    @pytest.mark.parametrize("protocol", ["cyclon", "gozar", "nylon"])
    def test_overlay_stays_connected(self, protocol):
        scenario = Scenario(ScenarioConfig(protocol=protocol, seed=5, latency="constant"))
        if protocol == "cyclon":
            scenario.populate(n_public=30, n_private=0)
        else:
            scenario.populate(n_public=8, n_private=22)
        scenario.run_rounds(30)
        from repro.metrics.graph import build_overlay_graph
        from repro.metrics.partition import largest_cluster_fraction

        graph = build_overlay_graph(scenario.overlay_graph())
        assert largest_cluster_fraction(graph) > 0.9
