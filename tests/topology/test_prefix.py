"""Tests for prefixes, pools, and the address plan."""

import dataclasses
import ipaddress
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.prefix import AddressPlan, Prefix, PrefixPool, allocate_prefixes


def make_prefix(cidr: str, asn: int = 100) -> Prefix:
    return Prefix.from_network(ipaddress.IPv4Network(cidr), asn)


class TestPrefix:
    def test_properties(self):
        prefix = make_prefix("10.0.0.0/24")
        assert prefix.prefix_len == 24
        assert prefix.num_addresses == 256

    def test_contains(self):
        prefix = make_prefix("10.0.0.0/24")
        assert prefix.contains(ipaddress.IPv4Address("10.0.0.77"))
        assert not prefix.contains(ipaddress.IPv4Address("10.0.1.1"))

    def test_subprefixes_split(self):
        prefix = make_prefix("10.0.0.0/23")
        subs = prefix.subprefixes(24)
        assert [str(s.network) for s in subs] == ["10.0.0.0/24", "10.0.1.0/24"]
        assert all(s.origin_asn == 100 for s in subs)

    def test_subprefix_must_be_more_specific(self):
        with pytest.raises(TopologyError):
            make_prefix("10.0.0.0/24").subprefixes(24)

    def test_subprefix_len_capped_at_32(self):
        with pytest.raises(TopologyError):
            make_prefix("10.0.0.0/24").subprefixes(33)


class TestPrefixPool:
    def test_assign_sequential_ips(self):
        pool = PrefixPool(asn=100)
        prefix = make_prefix("10.0.0.0/24")
        pool.add_prefix(prefix)
        ip1 = pool.assign_node(1, prefix)
        ip2 = pool.assign_node(2, prefix)
        assert ip2 == ip1 + 1
        assert pool.node_ip(1) == ip1
        assert pool.prefix_of(2) == prefix

    def test_wrong_origin_rejected(self):
        pool = PrefixPool(asn=100)
        with pytest.raises(TopologyError):
            pool.add_prefix(make_prefix("10.0.0.0/24", asn=999))

    def test_prefix_not_in_pool_rejected(self):
        pool = PrefixPool(asn=100)
        pool.add_prefix(make_prefix("10.0.0.0/24"))
        with pytest.raises(TopologyError, match="prefix not in pool"):
            pool.assign_node(1, make_prefix("10.0.1.0/24"))

    def test_duplicate_prefix_rejected(self):
        pool = PrefixPool(asn=100)
        pool.add_prefix(make_prefix("10.0.0.0/24"))
        with pytest.raises(TopologyError, match="already in pool"):
            pool.add_prefix(make_prefix("10.0.0.0/24"))
        assert pool.num_prefixes == 1

    def test_constructor_prefixes_are_indexed(self):
        prefix = make_prefix("10.0.0.0/24")
        pool = PrefixPool(asn=100, prefixes=[prefix])
        assert pool.assign_node(1, prefix) == prefix.network.network_address + 1

    def test_double_assignment_rejected(self):
        pool = PrefixPool(asn=100)
        prefix = make_prefix("10.0.0.0/24")
        pool.add_prefix(prefix)
        pool.assign_node(1, prefix)
        with pytest.raises(TopologyError):
            pool.assign_node(1, prefix)

    def test_prefix_exhaustion(self):
        pool = PrefixPool(asn=100)
        prefix = make_prefix("10.0.0.0/30")  # 2 usable hosts
        pool.add_prefix(prefix)
        pool.assign_node(1, prefix)
        pool.assign_node(2, prefix)
        with pytest.raises(TopologyError):
            pool.assign_node(3, prefix)

    def test_weighted_assignment_overflows_to_next_prefix(self):
        pool = PrefixPool(asn=100)
        tiny = make_prefix("10.0.0.0/30")
        big = make_prefix("10.1.0.0/24")
        pool.add_prefix(tiny)
        pool.add_prefix(big)
        # All weight on the tiny prefix: overflow must land in big.
        pool.assign_nodes_weighted(range(10), [1.0, 1e-9], random.Random(1))
        grouped = pool.nodes_by_prefix()
        assert len(grouped[tiny]) == 2
        assert len(grouped[big]) == 8

    def test_weighted_assignment_capacity_check(self):
        pool = PrefixPool(asn=100)
        pool.add_prefix(make_prefix("10.0.0.0/30"))
        with pytest.raises(TopologyError):
            pool.assign_nodes_weighted(range(10), [1.0], random.Random(1))

    def test_weighted_capacity_counts_hosts_already_placed(self):
        pool = PrefixPool(asn=100)
        pool.add_prefix(make_prefix("10.0.0.0/30"))
        pool.add_prefix(make_prefix("10.0.0.4/30"))
        pool.assign_node(0, pool.prefixes[0])
        rng = random.Random(5)
        before = rng.getstate()
        with pytest.raises(TopologyError, match="capacity"):
            pool.assign_nodes_weighted([1, 2, 3, 4], [1.0, 1.0], rng)
        assert rng.getstate() == before
        assert pool.num_nodes == 1

    def test_weight_count_must_match(self):
        pool = PrefixPool(asn=100)
        pool.add_prefix(make_prefix("10.0.0.0/24"))
        with pytest.raises(TopologyError):
            pool.assign_nodes_weighted([1], [0.5, 0.5], random.Random(1))

    def test_node_counts_sorted_descending(self):
        pool = PrefixPool(asn=100)
        a = make_prefix("10.0.0.0/24")
        b = make_prefix("10.0.1.0/24")
        pool.add_prefix(a)
        pool.add_prefix(b)
        for node_id in range(5):
            pool.assign_node(node_id, a)
        pool.assign_node(10, b)
        counts = pool.node_counts()
        assert counts[0] == (a, 5)
        assert counts[1] == (b, 1)

    def test_unknown_node_lookup_raises(self):
        pool = PrefixPool(asn=100)
        with pytest.raises(TopologyError):
            pool.node_ip(1)


class TestAddressPlan:
    def test_disjoint_allocations(self):
        plan = AddressPlan()
        a = plan.allocate(1, 4, 24)
        b = plan.allocate(2, 4, 24)
        nets_a = {p.network for p in a}
        nets_b = {p.network for p in b}
        assert not nets_a & nets_b
        for pa in a:
            for pb in b:
                assert not pa.network.overlaps(pb.network)

    def test_alignment_across_lengths(self):
        plan = AddressPlan()
        plan.allocate(1, 1, 30)
        aligned = plan.allocate(2, 1, 16)[0]
        assert int(aligned.network.network_address) % aligned.num_addresses == 0

    def test_count_positive_required(self):
        with pytest.raises(TopologyError):
            AddressPlan().allocate(1, 0, 24)

    def test_plan_exhaustion(self):
        plan = AddressPlan()
        plan.allocate(1, 300, 9)  # 300 * 2^23 addresses: most of IPv4
        with pytest.raises(TopologyError):
            plan.allocate(2, 300, 9)

    def test_used_addresses_tracks_cursor(self):
        plan = AddressPlan()
        plan.allocate(1, 2, 24)
        assert plan.used_addresses >= 512


class TestAllocatePrefixes:
    def test_standalone_mode_disjoint_by_index(self):
        a = allocate_prefixes(1, 8, as_index=0)
        b = allocate_prefixes(2, 8, as_index=1)
        for pa in a:
            for pb in b:
                assert not pa.network.overlaps(pb.network)

    def test_with_plan_delegates(self):
        plan = AddressPlan()
        prefixes = allocate_prefixes(1, 3, plan=plan)
        assert len(prefixes) == 3
        assert plan.used_addresses > 0

    def test_invalid_prefix_len(self):
        with pytest.raises(TopologyError):
            allocate_prefixes(1, 1, prefix_len=31)


CIDRS = st.builds(
    lambda address, length: ipaddress.IPv4Network(
        (address >> (32 - length) << (32 - length), length)
    ),
    st.integers(0, 2**32 - 1),
    st.integers(8, 30),
)


class TestPrefixContract:
    """An int-built prefix is the same value as one built from its network."""

    def test_int_and_network_built_prefixes_are_one_key(self):
        net = ipaddress.IPv4Network("10.0.0.0/24")
        by_int = Prefix(int(net.network_address), 24, 100)
        by_net = Prefix.from_network(net, 100)
        assert by_int == by_net
        assert hash(by_int) == hash(by_net)
        assert by_int != Prefix(by_int.first, 24, 101)
        pool = PrefixPool(asn=100)
        pool.add_prefix(by_int)
        with pytest.raises(TopologyError, match="already in pool"):
            pool.add_prefix(by_net)
        pool.assign_node(1, by_net)
        pool.assign_node(2, by_int)
        assert pool._index == {by_net: 0}
        assert pool._next_host == {by_net: 3}
        assert pool.node_ip(2) == ipaddress.IPv4Address("10.0.0.2")

    @given(net=CIDRS, asn=st.integers(1, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_text_network_and_size_match_ipaddress(self, net, asn):
        prefix = Prefix(int(net.network_address), net.prefixlen, asn)
        assert str(prefix) == f"{net} (AS{asn})"
        assert prefix.cidr == str(net)
        assert prefix.network == net
        assert prefix.num_addresses == net.num_addresses
        assert prefix.prefix_len == net.prefixlen

    @given(net=CIDRS, extra=st.integers(1, 2))
    @settings(max_examples=50, deadline=None)
    def test_subprefixes_match_ipaddress_subnets(self, net, extra):
        subs = Prefix.from_network(net, 100).subprefixes(net.prefixlen + extra)
        expected = list(net.subnets(new_prefix=net.prefixlen + extra))
        assert [s.network for s in subs] == expected
        assert subs == [Prefix(int(n.network_address), n.prefixlen, 100) for n in expected]

    @given(nets=st.lists(CIDRS, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_cidr_order_is_network_text_order(self, nets):
        prefixes = [Prefix.from_network(net, 100) for net in nets]
        by_key = sorted(prefixes, key=lambda p: p.cidr)
        by_text = sorted(prefixes, key=lambda p: str(p.network))
        assert by_key == by_text

    def test_pickle_round_trip(self):
        prefix = make_prefix("10.0.4.0/22")
        assert pickle.loads(pickle.dumps(prefix)) == prefix
        prefix.network  # cached on the instance from here on
        restored = pickle.loads(pickle.dumps(prefix))
        assert restored == prefix
        assert restored.network == ipaddress.IPv4Network("10.0.4.0/22")

    def test_fields_are_frozen(self):
        prefix = make_prefix("10.0.0.0/24")
        for name, value in (("first", 0), ("prefix_len", 16), ("origin_asn", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(prefix, name, value)
