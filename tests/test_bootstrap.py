"""Tests for the bootstrap registry."""

from repro.bootstrap.registry import BootstrapRegistry
from repro.net.address import Endpoint, NatType, NodeAddress


def public_address(node_id):
    return NodeAddress(node_id, Endpoint(f"1.0.0.{node_id}", 7000), NatType.PUBLIC)


def private_address(node_id):
    return NodeAddress(
        node_id,
        Endpoint(f"2.0.0.{node_id}", 7000),
        NatType.PRIVATE,
        private_endpoint=Endpoint(f"10.0.0.{node_id}", 7000),
    )


def registered_ids(registry):
    return sorted(address.node_id for address in registry.sample(1000))


class TestRegistry:
    def test_register_accepts_public_only(self):
        registry = BootstrapRegistry()
        assert registry.register(public_address(1))
        assert not registry.register(private_address(2))
        assert registered_ids(registry) == [1]

    def test_unregister(self):
        registry = BootstrapRegistry()
        registry.register(public_address(1))
        registry.unregister(1)
        assert registered_ids(registry) == []
        registry.unregister(99)  # unknown ids are ignored

    def test_sample_excludes_requester(self):
        registry = BootstrapRegistry()
        for node_id in range(1, 6):
            registry.register(public_address(node_id))
        sample = registry.sample(10, exclude_id=3)
        assert len(sample) == 4
        assert all(a.node_id != 3 for a in sample)

    def test_sample_bounded_by_count(self):
        registry = BootstrapRegistry()
        for node_id in range(1, 21):
            registry.register(public_address(node_id))
        assert len(registry.sample(5)) == 5

    def test_all_public_snapshot(self):
        registry = BootstrapRegistry()
        registry.register(public_address(1))
        assert [a.node_id for a in registry.all_public()] == [1]
