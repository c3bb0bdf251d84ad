"""Unit and small-integration tests for the Croupier protocol component."""

import pytest

from repro.core.config import CroupierConfig
from repro.core.croupier import Croupier
from repro.core.estimator import RatioEstimate
from repro.core.messages import ShuffleRequest, ShuffleResponse
from repro.errors import ConfigurationError
from repro.experiments.figures import PAPER_WINDOW_PAIRS


def build_croupier(hosts, public=True, **config_kwargs):
    config = CroupierConfig(start_delay_max_ms=0.0, round_jitter_ms=0.0, **config_kwargs)
    host = hosts.public_host() if public else hosts.private_host()
    return Croupier(host, config)


class TestConfig:
    def test_defaults_match_paper(self):
        config = CroupierConfig()
        assert config.view_size == 10
        assert config.shuffle_size == 5
        assert config.round_ms == 1000.0
        assert config.local_history_alpha == 25
        assert config.neighbour_history_gamma == 50
        assert config.max_estimates_per_message == 10

    def test_window_presets(self):
        """The paper's (α, γ) presets of Figures 1 and 2, stated once; the default
        configuration is the middle one."""
        assert PAPER_WINDOW_PAIRS == ((10, 25), (25, 50), (100, 250))
        config = CroupierConfig()
        assert (config.local_history_alpha, config.neighbour_history_gamma) == (
            PAPER_WINDOW_PAIRS[1]
        )

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            CroupierConfig(local_history_alpha=0).validate()
        with pytest.raises(ConfigurationError):
            CroupierConfig(neighbour_history_gamma=-1).validate()
        with pytest.raises(ConfigurationError):
            CroupierConfig(shuffle_size=20, view_size=10).validate()
        with pytest.raises(ConfigurationError):
            CroupierConfig(pending_shuffle_timeout_rounds=0).validate()


class TestInitialisation:
    def test_initialize_view_separates_classes(self, sim, hosts):
        croupier = build_croupier(hosts)
        seeds = [hosts.public_host().address for _ in range(3)]
        seeds += [hosts.private_host().address for _ in range(2)]
        croupier.initialize_view(seeds)
        assert len(croupier.public_view) == 3
        assert len(croupier.private_view) == 2

    def test_initialize_view_skips_self(self, sim, hosts):
        croupier = build_croupier(hosts)
        croupier.initialize_view([croupier.address])
        assert len(croupier.public_view) == 0

    def test_estimator_class_follows_nat_type(self, sim, hosts):
        assert build_croupier(hosts, public=True).estimator.is_public
        assert not build_croupier(hosts, public=False).estimator.is_public


class TestRoundBehaviour:
    def test_round_sends_request_to_public_node(self, sim, hosts):
        a = build_croupier(hosts)
        b = build_croupier(hosts)
        a.initialize_view([b.address])
        b.initialize_view([a.address])
        a.start()
        b.start()
        sim.run(until=1_500)
        assert b.stats.shuffle_requests_handled >= 1
        assert a.stats.shuffle_responses_received >= 1

    def test_empty_public_view_skips_round(self, sim, hosts):
        lonely = build_croupier(hosts)
        lonely.start()
        sim.run(until=3_500)
        assert lonely.stats.rounds >= 3
        assert lonely.stats.rounds_skipped_empty_view == lonely.stats.rounds
        assert lonely.stats.shuffles_initiated == 0

    def test_partner_removed_from_view_after_selection(self, sim, hosts):
        a = build_croupier(hosts)
        partner = hosts.public_host().address
        a.initialize_view([partner])
        a.start()
        sim.run(until=1_200)
        assert partner.node_id not in a.public_view

    def test_private_node_initiates_but_never_handles_requests(self, sim, hosts):
        publics = [build_croupier(hosts, public=True) for _ in range(3)]
        private = build_croupier(hosts, public=False)
        public_addresses = [p.address for p in publics]
        for public in publics:
            public.initialize_view(
                [a for a in public_addresses if a.node_id != public.address.node_id]
            )
            public.start()
        private.initialize_view(public_addresses)
        private.start()
        sim.run(until=6_500)
        assert private.stats.shuffles_initiated >= 3
        assert private.stats.shuffle_requests_handled == 0
        assert sum(p.stats.shuffle_requests_handled for p in publics) >= 3

    def test_views_converge_and_exchange_descriptors(self, sim, hosts):
        nodes = [build_croupier(hosts) for _ in range(4)]
        nodes += [build_croupier(hosts, public=False) for _ in range(4)]
        publics = [n.address for n in nodes if n.address.is_public]
        for node in nodes:
            node.initialize_view([a for a in publics if a.node_id != node.address.node_id])
            node.start()
        sim.run(until=20_000)
        # After 20 rounds every node should know at least one private node.
        private_known = sum(1 for n in nodes if len(n.private_view) > 0)
        assert private_known >= 6

    def test_pending_shuffles_expire(self, sim, hosts):
        a = build_croupier(hosts, pending_shuffle_timeout_rounds=2)
        dead_partner = hosts.public_host()
        dead_partner.kill()
        a.initialize_view([dead_partner.address])
        a.start()
        sim.run(until=6_000)
        assert not a._pending


class TestHandlers:
    def test_misdirected_request_counted_and_ignored(self, sim, hosts):
        private = build_croupier(hosts, public=False)
        public = build_croupier(hosts, public=True)
        private.start()
        public.start()
        # Force-deliver a shuffle request to a private node (stale descriptor case).
        request = ShuffleRequest(sender=public.self_descriptor())
        from repro.simulator.message import Packet

        packet = Packet(
            source=public.self_endpoint,
            destination=private.self_endpoint,
            message=request,
        )
        private.handle_packet(packet)
        assert private.stats.extra.get("misdirected_requests") == 1

    def test_request_handler_counts_hits_by_sender_class(self, sim, hosts):
        croupier = build_croupier(hosts)
        croupier.start()
        public_sender = build_croupier(hosts)
        private_sender = build_croupier(hosts, public=False)
        from repro.simulator.message import Packet

        for sender in (public_sender, private_sender):
            request = ShuffleRequest(sender=sender.self_descriptor())
            croupier.handle_packet(
                Packet(
                    source=sender.self_endpoint,
                    destination=croupier.self_endpoint,
                    message=request,
                )
            )
        assert croupier.estimator.current_round_hits == (1, 1)

    def test_response_merges_received_descriptors(self, sim, hosts):
        croupier = build_croupier(hosts)
        croupier.start()
        other = build_croupier(hosts)
        newcomer = hosts.public_host().address
        from repro.membership.descriptor import NodeDescriptor
        from repro.simulator.message import Packet

        response = ShuffleResponse(
            sender=other.self_descriptor(),
            public_descriptors=(NodeDescriptor(address=newcomer, age=0),),
        )
        croupier.handle_packet(
            Packet(
                source=other.self_endpoint,
                destination=croupier.self_endpoint,
                message=response,
            )
        )
        assert newcomer.node_id in croupier.public_view


class TestSamplingApi:
    def test_sample_returns_none_with_empty_views(self, sim, hosts):
        croupier = build_croupier(hosts)
        assert croupier.sample() is None

    def test_sample_many_counts(self, sim, hosts):
        croupier = build_croupier(hosts)
        croupier.initialize_view([hosts.public_host().address for _ in range(3)])
        samples = croupier.sample_many(10)
        assert len(samples) == 10
        assert croupier.stats.samples_served == 10

    def test_neighbor_addresses_cover_both_views(self, sim, hosts):
        croupier = build_croupier(hosts)
        croupier.initialize_view(
            [hosts.public_host().address, hosts.private_host().address]
        )
        neighbours = croupier.neighbor_addresses()
        assert len(neighbours) == 2
        assert {n.is_public for n in neighbours} == {True, False}

    def test_view_sizes_and_estimated_ratio_accessors(self, sim, hosts):
        croupier = build_croupier(hosts)
        assert (len(croupier.public_view), len(croupier.private_view)) == (0, 0)
        assert croupier.estimated_ratio() is None


class TestMessageSizes:
    def test_shuffle_message_size_accounts_descriptors_and_estimates(self, sim, hosts):
        croupier = build_croupier(hosts)
        other = build_croupier(hosts)
        request = ShuffleRequest(
            sender=croupier.self_descriptor(),
            public_descriptors=(other.self_descriptor(),),
            private_descriptors=(),
            estimates=(RatioEstimate(1, 0.2), RatioEstimate(2, 0.3)),
            sender_estimate=RatioEstimate(3, 0.25),
        )
        expected_payload = 12 + 12 + 3 * 5
        assert request.payload_size() == expected_payload
        assert request.wire_size == expected_payload + 28
        assert len(request.public_descriptors) + len(request.private_descriptors) == 1

    def test_estimate_overhead_bounded_to_fifty_bytes(self, sim, hosts):
        """Paper, Section VII: the piggy-backed estimates add at most 50 bytes to a
        shuffle message (10 of 5 bytes), besides a public sender's own."""
        sender = build_croupier(hosts).self_descriptor()
        bound = CroupierConfig().max_estimates_per_message
        bare = ShuffleRequest(sender=sender)
        full = ShuffleRequest(
            sender=sender,
            estimates=tuple(RatioEstimate(i, 0.2) for i in range(bound)),
        )
        assert full.wire_size - bare.wire_size == 50
