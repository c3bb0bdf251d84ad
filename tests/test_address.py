"""Unit tests for repro.net.address."""

import pytest

from repro.errors import ConfigurationError
from repro.net.address import Endpoint, NatType, NodeAddress, format_ipv4, parse_ipv4


class TestIpv4Helpers:
    def test_format_basic(self):
        assert format_ipv4(0x0A000001) == "10.0.0.1"

    def test_format_zero_and_max(self):
        assert format_ipv4(0) == "0.0.0.0"
        assert format_ipv4(0xFFFFFFFF) == "255.255.255.255"

    def test_format_out_of_range(self):
        with pytest.raises(ConfigurationError):
            format_ipv4(-1)
        with pytest.raises(ConfigurationError):
            format_ipv4(1 << 32)

    def test_parse_basic(self):
        assert parse_ipv4("10.0.0.1") == 0x0A000001

    def test_parse_roundtrip(self):
        for value in (0, 1, 256, 65535, 0x01020304, 0xFFFFFFFF):
            assert parse_ipv4(format_ipv4(value)) == value

    def test_parse_rejects_garbage(self):
        for bad in ("10.0.0", "1.2.3.4.5", "a.b.c.d", "256.0.0.1", "-1.0.0.0", ""):
            with pytest.raises(ConfigurationError):
                parse_ipv4(bad)


class TestEndpoint:
    def test_valid(self):
        endpoint = Endpoint("1.2.3.4", 7000)
        assert str(endpoint) == "1.2.3.4:7000"

    def test_port_range_validation(self):
        with pytest.raises(ConfigurationError):
            Endpoint("1.2.3.4", 0)
        with pytest.raises(ConfigurationError):
            Endpoint("1.2.3.4", 70000)

    def test_ip_validation(self):
        with pytest.raises(ConfigurationError):
            Endpoint("not-an-ip", 7000)

    def test_with_port(self):
        endpoint = Endpoint("1.2.3.4", 7000)
        other = endpoint.with_port(8000)
        assert other.ip == "1.2.3.4"
        assert other.port == 8000
        assert endpoint.port == 7000  # original untouched

    def test_equality_and_hash(self):
        assert Endpoint("1.2.3.4", 7000) == Endpoint("1.2.3.4", 7000)
        assert Endpoint("1.2.3.4", 7000) != Endpoint("1.2.3.4", 7001)
        assert len({Endpoint("1.2.3.4", 7000), Endpoint("1.2.3.4", 7000)}) == 1

    def test_ordering(self):
        assert Endpoint("1.2.3.4", 1) < Endpoint("1.2.3.4", 2)


class TestNatType:
    def test_flags(self):
        """An address stores both flags; an ``UNKNOWN`` node is neither."""
        flags = {
            nat_type: (address.is_public, address.is_private)
            for nat_type in NatType
            for address in [NodeAddress(1, Endpoint("1.0.0.1", 7000), nat_type)]
        }
        assert flags == {
            NatType.PUBLIC: (True, False),
            NatType.PRIVATE: (False, True),
            NatType.UNKNOWN: (False, False),
        }


class TestNodeAddress:
    def _address(self, node_id=1, nat_type=NatType.PUBLIC):
        return NodeAddress(node_id=node_id, endpoint=Endpoint("1.0.0.1", 7000), nat_type=nat_type)

    def test_identity_is_node_id(self):
        a = self._address(1)
        b = NodeAddress(node_id=1, endpoint=Endpoint("9.9.9.9", 9), nat_type=NatType.PRIVATE,
                        private_endpoint=Endpoint("10.0.0.1", 9))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_with_other_types(self):
        assert self._address(1) != "node1"

    def test_negative_node_id_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeAddress(node_id=-1, endpoint=Endpoint("1.0.0.1", 7000))

    def test_with_nat_type(self):
        address = self._address(nat_type=NatType.UNKNOWN)
        updated = address.with_nat_type(NatType.PUBLIC)
        assert updated.is_public
        assert address.nat_type is NatType.UNKNOWN
        assert updated.node_id == address.node_id

    def test_is_public_private_helpers(self):
        assert self._address(nat_type=NatType.PUBLIC).is_public
        private = NodeAddress(
            node_id=3,
            endpoint=Endpoint("2.0.0.1", 7000),
            nat_type=NatType.PRIVATE,
            private_endpoint=Endpoint("10.0.0.1", 7000),
        )
        assert private.is_private
