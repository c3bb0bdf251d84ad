"""Unit tests for the NAT substrate: bindings, policies, UPnP, firewall, allocator.

``TestTableOracle`` drives the production box and the scan-every-call reference
box of ``tests/nat_oracle.py`` with the same generated packet sequences;
``TestPacketPathCost`` states what a packet may cost the table and the whole hop.
"""

import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from nat_oracle import ReferenceUpnpNatBox
from repro.errors import ConfigurationError, NatError
from repro.nat.allocator import AllocationPolicy, PortAllocator
from repro.nat.firewall import FirewallBox
from repro.nat.mixture import NAT_MIXTURES
from repro.nat.nat_box import NatBox
from repro.nat.types import FilteringPolicy, MappingPolicy, NatProfile
from repro.nat.upnp import UpnpNatBox
from repro.net.address import Endpoint, format_ipv4
from repro.workload.scenario import Scenario, ScenarioConfig

INTERNAL = Endpoint("10.0.0.1", 7000)
REMOTE_A = Endpoint("1.0.0.1", 7000)
REMOTE_B = Endpoint("1.0.0.2", 7000)
REMOTE_A_OTHER_PORT = Endpoint("1.0.0.1", 9000)


def _binding_for(nat, internal):
    """Any live binding of ``internal`` (the table keeps one per mapping key)."""
    return next((b for b in nat._bindings.values() if b.internal == internal), None)


def _has_mapping_to(nat, internal, remote):
    """Whether ``internal`` holds an unexpired binding that contacted ``remote``."""
    binding = _binding_for(nat, internal)
    return binding is not None and binding.has_contacted(remote)


class TestNatProfile:
    def test_presets(self):
        assert NatProfile.full_cone().filtering is FilteringPolicy.ENDPOINT_INDEPENDENT
        assert NatProfile.restricted_cone().filtering is FilteringPolicy.ADDRESS_DEPENDENT
        assert (
            NatProfile.port_restricted_cone().filtering
            is FilteringPolicy.ADDRESS_PORT_DEPENDENT
        )
        assert NatProfile.symmetric().mapping is MappingPolicy.ADDRESS_PORT_DEPENDENT

    def test_invalid_timeout(self):
        with pytest.raises(ConfigurationError):
            NatProfile(mapping_timeout_ms=0)


class TestOutboundTranslation:
    def test_port_preserved_when_free(self):
        nat = NatBox("2.0.0.1")
        wire = nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        assert wire == Endpoint("2.0.0.1", 7000)

    def test_endpoint_independent_mapping_reused_across_destinations(self):
        nat = NatBox("2.0.0.1", profile=NatProfile.full_cone())
        first = nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        second = nat.translate_outbound(INTERNAL, REMOTE_B, now=1.0)
        assert first == second
        assert len(nat._bindings) == 1

    def test_symmetric_mapping_differs_per_destination(self):
        nat = NatBox("2.0.0.1", profile=NatProfile.symmetric())
        first = nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        second = nat.translate_outbound(INTERNAL, REMOTE_B, now=0.0)
        assert first.port != second.port
        assert len(nat._bindings) == 2

    def test_mapping_tracks_contacted_destinations(self):
        nat = NatBox("2.0.0.1")
        nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        assert _has_mapping_to(nat, INTERNAL, REMOTE_A)
        assert not _has_mapping_to(nat, INTERNAL, REMOTE_B)


class TestInboundFiltering:
    def test_no_binding_blocks_everything(self):
        nat = NatBox("2.0.0.1")
        assert nat.accept_inbound(REMOTE_A, Endpoint("2.0.0.1", 7000), now=0.0) is None

    def test_endpoint_independent_accepts_anyone(self):
        nat = NatBox("2.0.0.1", profile=NatProfile.full_cone())
        nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        assert nat.accept_inbound(REMOTE_B, Endpoint("2.0.0.1", 7000), now=1.0) == INTERNAL

    def test_address_dependent_requires_contacted_ip(self):
        nat = NatBox("2.0.0.1", profile=NatProfile.restricted_cone())
        nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        assert nat.accept_inbound(REMOTE_A_OTHER_PORT, Endpoint("2.0.0.1", 7000), 1.0) == INTERNAL
        assert nat.accept_inbound(REMOTE_B, Endpoint("2.0.0.1", 7000), 1.0) is None

    def test_port_dependent_requires_exact_endpoint(self):
        nat = NatBox("2.0.0.1", profile=NatProfile.port_restricted_cone())
        nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        assert nat.accept_inbound(REMOTE_A, Endpoint("2.0.0.1", 7000), 1.0) == INTERNAL
        assert nat.accept_inbound(REMOTE_A_OTHER_PORT, Endpoint("2.0.0.1", 7000), 1.0) is None


class TestContactIndex:
    """A remote IP contacted on one port is indexed by a ``(port,)`` tuple that
    every binding shares; a second port builds the binding its own tuple."""

    def test_bindings_share_the_one_port_tuple(self):
        first, second = NatBox("2.0.0.1"), NatBox("2.0.0.2")
        first.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        second.translate_outbound(INTERNAL, REMOTE_B, now=0.0)
        ports_a = _binding_for(first, INTERNAL).contacted[REMOTE_A.ip]
        ports_b = _binding_for(second, INTERNAL).contacted[REMOTE_B.ip]
        assert ports_a == (7000,)
        assert ports_a is ports_b

    @pytest.mark.parametrize(
        "profile", [NatProfile.restricted_cone(), NatProfile.port_restricted_cone()],
        ids=["address", "address_port"],
    )
    def test_second_port_leaves_the_shared_tuple_alone(self, profile):
        bystander, nat = NatBox("2.0.0.1", profile=profile), NatBox("2.0.0.2", profile=profile)
        bystander.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        nat.translate_outbound(INTERNAL, REMOTE_A_OTHER_PORT, now=1.0)
        shared = _binding_for(bystander, INTERNAL)
        both = _binding_for(nat, INTERNAL)
        assert shared.contacted[REMOTE_A.ip] == (7000,)
        assert both.contacted[REMOTE_A.ip] == (7000, 9000)
        address_only = profile.filtering is FilteringPolicy.ADDRESS_DEPENDENT
        unseen_port = Endpoint(REMOTE_A.ip, 8000)
        for binding, ports in ((shared, {7000}), (both, {7000, 9000})):
            for remote in (REMOTE_A, REMOTE_A_OTHER_PORT, unseen_port, REMOTE_B):
                contacted = remote.ip == REMOTE_A.ip and remote.port in ports
                assert binding.has_contacted(remote) is contacted
                assert binding.allows_inbound(remote, profile.filtering) is (
                    contacted or (address_only and remote.ip == REMOTE_A.ip)
                )


class TestMappingExpiry:
    def test_binding_expires_after_timeout(self):
        nat = NatBox("2.0.0.1", profile=NatProfile(mapping_timeout_ms=1000.0))
        nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        assert nat.accept_inbound(REMOTE_A, Endpoint("2.0.0.1", 7000), now=500.0) == INTERNAL
        assert nat.accept_inbound(REMOTE_A, Endpoint("2.0.0.1", 7000), now=2000.0) is None

    def test_outbound_traffic_refreshes_binding(self):
        nat = NatBox("2.0.0.1", profile=NatProfile(mapping_timeout_ms=1000.0))
        nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        nat.translate_outbound(INTERNAL, REMOTE_A, now=900.0)
        assert nat.accept_inbound(REMOTE_A, Endpoint("2.0.0.1", 7000), now=1800.0) == INTERNAL

    def test_expired_port_is_released(self):
        nat = NatBox("2.0.0.1", profile=NatProfile(mapping_timeout_ms=1000.0))
        nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        assert len(nat._bindings) == 1
        nat.translate_outbound(Endpoint("10.0.0.2", 8000), REMOTE_A, now=5000.0)
        assert len(nat._bindings) == 1  # the first one expired and was removed


class TestUpnp:
    def test_permanent_mapping_accepts_unsolicited(self):
        nat = UpnpNatBox("2.0.0.1", profile=NatProfile.port_restricted_cone())
        external = nat.add_port_mapping(INTERNAL, external_port=7000)
        assert external == Endpoint("2.0.0.1", 7000)
        assert nat.accept_inbound(REMOTE_B, external, now=0.0) == INTERNAL

    def test_permanent_mapping_never_expires(self):
        nat = UpnpNatBox("2.0.0.1", profile=NatProfile(mapping_timeout_ms=100.0))
        external = nat.add_port_mapping(INTERNAL)
        assert nat.accept_inbound(REMOTE_A, external, now=10_000_000.0) == INTERNAL

    def test_conflicting_mapping_rejected(self):
        nat = UpnpNatBox("2.0.0.1")
        nat.add_port_mapping(INTERNAL, external_port=7000)
        with pytest.raises(NatError):
            nat.add_port_mapping(Endpoint("10.0.0.2", 7000), external_port=7000)

    def test_supports_flag(self):
        assert UpnpNatBox("2.0.0.1").supports_upnp_igd


class TestFirewall:
    def test_no_translation_on_outbound(self):
        firewall = FirewallBox("9.0.0.1")
        wire = firewall.translate_outbound(Endpoint("9.0.0.1", 7000), REMOTE_A, now=0.0)
        assert wire == Endpoint("9.0.0.1", 7000)

    def test_unsolicited_inbound_blocked(self):
        firewall = FirewallBox("9.0.0.1")
        assert firewall.accept_inbound(REMOTE_A, Endpoint("9.0.0.1", 7000), now=0.0) is None

    def test_reply_on_open_flow_allowed(self):
        firewall = FirewallBox("9.0.0.1")
        firewall.translate_outbound(Endpoint("9.0.0.1", 7000), REMOTE_A, now=0.0)
        accepted = firewall.accept_inbound(REMOTE_A, Endpoint("9.0.0.1", 7000), now=1.0)
        assert accepted == Endpoint("9.0.0.1", 7000)


class TestPortAllocator:
    def test_preservation_uses_preferred_port(self):
        allocator = PortAllocator(AllocationPolicy.PORT_PRESERVATION)
        assert allocator.allocate(preferred_port=7000) == 7000

    def test_preservation_falls_back_on_collision(self):
        allocator = PortAllocator(AllocationPolicy.PORT_PRESERVATION)
        first = allocator.allocate(preferred_port=7000)
        second = allocator.allocate(preferred_port=7000)
        assert first == 7000
        assert second != 7000

    def test_sequential_allocates_unique_ports(self):
        allocator = PortAllocator(AllocationPolicy.SEQUENTIAL)
        ports = {allocator.allocate() for _ in range(100)}
        assert len(ports) == 100

    def test_release_returns_port_to_pool(self):
        allocator = PortAllocator(AllocationPolicy.PORT_PRESERVATION)
        allocator.allocate(preferred_port=7000)
        allocator.release(7000)
        assert allocator.allocate(preferred_port=7000) == 7000

    def test_in_use_counter(self):
        allocator = PortAllocator()
        allocator.allocate(preferred_port=1)
        allocator.allocate(preferred_port=2)
        assert allocator.in_use == 2

class TestNatBoxHosts:
    def test_attach_and_detach_host(self, sim, network, hosts):
        host = hosts.private_host()
        nat = host.natbox
        assert len(nat._hosts) == 1
        assert nat.host_for(host.local_endpoint) is host
        nat.detach_host(host)
        assert len(nat._hosts) == 0

    def test_attach_conflicting_internal_ip_rejected(self, sim, network, hosts):
        host = hosts.private_host()
        nat = host.natbox

        class FakeHost:
            local_endpoint = host.local_endpoint

        with pytest.raises(NatError):
            nat.attach_host(FakeHost())


# ---------------------------------------------------------------------- table oracle

#: Short enough that bindings expire in the middle of a generated sequence.
ORACLE_TIMEOUT_MS = 100.0

#: The four profiles of the paper mixture, plus inbound-refreshing variants of the
#: two filtering policies that consult the contact index.
ORACLE_PROFILES = (
    NatProfile.full_cone(ORACLE_TIMEOUT_MS),
    NatProfile.restricted_cone(ORACLE_TIMEOUT_MS),
    NatProfile.port_restricted_cone(ORACLE_TIMEOUT_MS),
    NatProfile.symmetric(ORACLE_TIMEOUT_MS),
    NatProfile(
        filtering=FilteringPolicy.ADDRESS_DEPENDENT,
        mapping_timeout_ms=ORACLE_TIMEOUT_MS,
        refresh_on_inbound=True,
    ),
    NatProfile(
        mapping=MappingPolicy.ADDRESS_PORT_DEPENDENT,
        filtering=FilteringPolicy.ADDRESS_PORT_DEPENDENT,
        mapping_timeout_ms=ORACLE_TIMEOUT_MS,
        refresh_on_inbound=True,
    ),
)

#: Hosts sharing a port (so port preservation collides and a released port is handed
#: to another one), a second socket on the first host, and enough of them that a
#: cone box, too, holds several bindings refreshed at different times.
ORACLE_INTERNALS = (
    Endpoint("10.0.0.1", 7000),
    Endpoint("10.0.0.2", 7000),
    Endpoint("10.0.0.1", 8000),
    Endpoint("10.0.0.3", 7000),
    Endpoint("10.0.0.4", 9000),
)
#: Remotes that share an IP but not a port, and remotes that share neither.
ORACLE_REMOTES = (
    Endpoint("1.0.0.1", 7000),
    Endpoint("1.0.0.1", 9000),
    Endpoint("1.0.0.2", 7000),
    Endpoint("1.0.0.3", 7000),
    Endpoint("1.0.0.3", 9000),
)
#: Steps of virtual time: mostly small fractions of the timeout, so that refresh
#: times are staggered and bindings expire one by one, plus the boundary itself.
ORACLE_STEPS_MS = (0.0, 0.5, 2.0, 5.0, 9.75, 14.0, 20.0, 33.0, 48.5, 100.0, 100.5)
#: External ports a packet may be aimed at when it is not aimed at a live mapping.
ORACLE_PORTS = (7000, 8000, 1024, 1025, 1026, 5000)

_outbound = st.tuples(
    st.just("outbound"),
    st.integers(0, len(ORACLE_INTERNALS) - 1),
    st.integers(0, len(ORACLE_REMOTES) - 1),
)
_advance = st.tuples(st.just("advance"), st.sampled_from(ORACLE_STEPS_MS))
_inbound = st.tuples(
    st.just("inbound"), st.integers(0, len(ORACLE_REMOTES) - 1), st.integers(0, 31)
)
#: Packets and clock steps are listed twice: they are the common case, and a table
#: only gets interesting once several bindings with different refresh times share it.
_oracle_operations = st.lists(
    st.one_of(
        _outbound,
        _outbound,
        _advance,
        _advance,
        _inbound,
        _inbound,
        st.tuples(
            st.just("add_mapping"),
            st.integers(0, len(ORACLE_INTERNALS) - 1),
            st.sampled_from((None,) + ORACLE_PORTS),
        ),
    ),
    # Hypothesis draws lists about twice their minimum size long; short sequences
    # never leave several staggered bindings in one table.
    min_size=30,
    max_size=120,
)


def _port_choice(handed_out, choice):
    """Mostly a port the box has handed out (a live or an expired mapping), else a
    fixed one — a function of the generated data and of return values already
    asserted equal, so both boxes see the same packet."""
    if handed_out and choice < 24:
        return handed_out[choice % len(handed_out)]
    return ORACLE_PORTS[choice % len(ORACLE_PORTS)]


def _call(function, *args):
    try:
        return function(*args)
    except NatError:
        return "NatError"


class TestTableOracle:
    """The O(1) table against the parent commit's scan-every-call table."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        profile=st.sampled_from(ORACLE_PROFILES),
        allocation=st.sampled_from(
            (AllocationPolicy.PORT_PRESERVATION, AllocationPolicy.SEQUENTIAL)
        ),
        operations=_oracle_operations,
    )
    # Two bindings refreshed at different times survive a scan (t=110) and the one
    # refreshed earlier expires before the other (t=165): a floor taken from the
    # wrong end of the table misses it.
    @example(
        profile=ORACLE_PROFILES[0],
        allocation=AllocationPolicy.PORT_PRESERVATION,
        operations=[
            ("outbound", 0, 0), ("advance", 60.0), ("outbound", 0, 0),
            ("advance", 25.0), ("outbound", 1, 0), ("advance", 25.0),
            ("outbound", 1, 0), ("advance", 55.0), ("inbound", 0, 31),
        ],
    )
    # 189.824 - 89.824 is 100.00000000000001 in floats: the binding is idle for
    # longer than the timeout although 189.824 > 89.824 + 100.0 is false. A scan
    # guard written as ``now > floor + timeout`` would keep it one packet too long.
    @example(
        profile=ORACLE_PROFILES[0],
        allocation=AllocationPolicy.PORT_PRESERVATION,
        operations=[
            ("advance", 89.824), ("outbound", 0, 0), ("advance", 100.0),
            ("inbound", 0, 0),
        ],
    )
    def test_same_answers_tables_and_ports_at_every_step(
        self, profile, allocation, operations
    ):
        box = UpnpNatBox("2.0.0.1", profile=profile, allocation=allocation)
        reference = ReferenceUpnpNatBox("2.0.0.1", profile=profile, allocation=allocation)
        now = 0.0
        handed_out = []
        for step, operation in enumerate(operations):
            kind = operation[0]
            if kind == "advance":
                now += operation[1]
                continue
            if kind == "outbound":
                args = (ORACLE_INTERNALS[operation[1]], ORACLE_REMOTES[operation[2]], now)
                got = box.translate_outbound(*args)
                expected = reference.translate_outbound(*args)
                if got is not None and got.port not in handed_out:
                    handed_out.append(got.port)
            elif kind == "inbound":
                destination = Endpoint("2.0.0.1", _port_choice(handed_out, operation[2]))
                args = (ORACLE_REMOTES[operation[1]], destination, now)
                got = box.accept_inbound(*args)
                expected = reference.accept_inbound(*args)
            else:
                args = (ORACLE_INTERNALS[operation[1]], operation[2], now)
                got = _call(box.add_port_mapping, *args)
                expected = _call(reference.add_port_mapping, *args)
                if got != "NatError" and got.port not in handed_out:
                    handed_out.append(got.port)
            context = f"step {step}: {operation} at t={now}"
            assert got == expected, context
            assert len(box._bindings) == reference.active_bindings, context
            assert box._allocator.in_use == reference._allocator.in_use, context
            for internal in ORACLE_INTERNALS:
                for remote in ORACLE_REMOTES:
                    assert _has_mapping_to(box, internal, remote) == (
                        reference.has_mapping_to(internal, remote)
                    ), context


#: Python-level calls (profiler ``"call"`` events) per packet sent, measured on a
#: 12 + 48-node paper-NAT cell at constant latency over 20 rounds after 5 warm-up
#: rounds. Before the event loop fired events inline, ``Component.send`` called
#: ``Network.send`` directly, the packet carried its size and keep-alives were one
#: object per node, the same cells read 40.0 (Nylon), 54.5 (Gozar) and 80.1 (Croupier);
#: Gozar read 44.3 before ``NodeAddress.is_private`` became a stored field.
CALLS_PER_PACKET = {"nylon": 26.5, "gozar": 42.9, "croupier": 67.7}


class TestPacketPathCost:
    """What one packet may cost the NAT table (the table tests all fail on the
    scan-every-call, walk-the-contacts table this one replaced), and what the whole
    hop may cost in Python calls."""

    @pytest.mark.parametrize("protocol", sorted(CALLS_PER_PACKET))
    def test_python_calls_per_packet_stay_within_ten_percent(self, protocol):
        scenario = Scenario(
            ScenarioConfig(
                protocol=protocol, latency="constant", nat_mixture=NAT_MIXTURES["paper"]
            )
        )
        scenario.populate(n_public=12, n_private=48)
        scenario.run_rounds(5)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sent = scenario.network.packets_sent
        previous = sys.getprofile()  # a profiler already running (scripts/census.py) resumes
        sys.setprofile(count)
        try:
            scenario.run_rounds(20)
        finally:
            sys.setprofile(previous)
        per_packet = calls / (scenario.network.packets_sent - sent)
        assert per_packet <= 1.1 * CALLS_PER_PACKET[protocol], per_packet

    def test_steadily_refreshed_binding_is_scanned_once_per_timeout_not_per_packet(
        self, monkeypatch
    ):
        scans = []
        expire = NatBox._expire_bindings

        def counting(self, now):
            scans.append(now)
            expire(self, now)

        monkeypatch.setattr(NatBox, "_expire_bindings", counting)
        nat = NatBox("2.0.0.1", profile=NatProfile.full_cone(mapping_timeout_ms=60_000.0))
        external = nat.translate_outbound(INTERNAL, REMOTE_A, now=0.0)
        for second in range(1, 601):
            now = second * 1000.0
            assert nat.translate_outbound(INTERNAL, REMOTE_A, now) == external
            assert nat.accept_inbound(REMOTE_A, external, now) == INTERNAL
        assert len(nat._bindings) == 1
        # 1 200 packets over ten timeouts: one scan per elapsed timeout, at most.
        assert len(scans) <= 11

    @pytest.mark.parametrize(
        "profile", [NatProfile.restricted_cone(), NatProfile.port_restricted_cone()]
    )
    def test_filtering_never_walks_the_contacts(self, profile):
        nat = NatBox("2.0.0.1", profile=profile)
        remotes = [Endpoint(format_ipv4(0x01000000 + i), 7000) for i in range(10_000)]
        for remote in remotes:
            external = nat.translate_outbound(INTERNAL, remote, now=0.0)
        binding = _binding_for(nat, INTERNAL)

        class Unwalkable(type(binding.contacted)):
            def __iter__(self):
                raise AssertionError("filtering iterated over the contacts")

        binding.contacted = Unwalkable(binding.contacted)
        assert len(binding.contacted) == len(remotes)
        for remote in (remotes[0], remotes[4_999], remotes[-1]):
            assert nat.accept_inbound(remote, external, now=1.0) == INTERNAL
            assert _has_mapping_to(nat, INTERNAL, remote)
        stranger = Endpoint("9.9.9.9", 7000)
        assert nat.accept_inbound(stranger, external, now=1.0) is None
        assert not _has_mapping_to(nat, INTERNAL, stranger)
