"""Property-based tests on the topology primitives feeding the graph
adapter.

The CSR adapter (:meth:`repro.netsim.graph.GraphSpec.from_topology`)
and the hijack partition mask lean on three primitives whose edge
cases Hypothesis explores here:

- ``RoutingTable.route``: longest prefix always wins, and within one
  prefix length the ``_prefer`` key (shortest AS path, then lowest
  origin ASN) is never beaten by another covering announcement;
- ``BgpHijack.captured_ips``: every captured IP lies inside one of the
  hijack's own announced networks (and inside the probed set);
- ``_scale_to_sum``: largest-remainder rounding conserves the total
  exactly and keeps every entry >= 1 for adversarial shapes (zeros,
  ties, rounding overshoot).
"""

from __future__ import annotations

import ipaddress

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.topology.bgp import BgpAnnouncement, BgpHijack, RoutingTable
from repro.topology.builder import _scale_to_sum
from repro.topology.prefix import Prefix


@st.composite
def announcements(draw):
    prefix_len = draw(st.integers(min_value=8, max_value=28))
    address = draw(st.integers(min_value=0, max_value=2**32 - 1))
    network = ipaddress.ip_network((address, prefix_len), strict=False)
    origin = draw(st.integers(min_value=1, max_value=65_000))
    upstream = draw(
        st.lists(st.integers(min_value=1, max_value=65_000), max_size=3)
    )
    return BgpAnnouncement(
        network=network,
        origin_asn=origin,
        as_path=tuple(upstream) + (origin,),
        hijack=draw(st.booleans()),
    )


class TestRoutingTableProperties:
    @given(
        anns=st.lists(announcements(), min_size=1, max_size=12),
        host=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_route_picks_longest_prefix_then_prefer_key(self, anns, host):
        table = RoutingTable()
        for ann in anns:
            table.announce(ann)
        ip = ipaddress.IPv4Address(host)
        covering = [ann for ann in anns if ann.covers(ip)]
        if not covering:
            with pytest.raises(RoutingError):
                table.route(ip)
            return
        best = table.route(ip)
        assert best.covers(ip)
        longest = max(ann.prefix_len for ann in covering)
        assert best.prefix_len == longest
        best_key = (len(best.as_path), best.origin_asn)
        for ann in covering:
            if ann.prefix_len == longest:
                assert best_key <= (len(ann.as_path), ann.origin_asn)

    @given(a=announcements(), b=announcements())
    @settings(max_examples=60, deadline=None)
    def test_prefer_is_a_strict_total_preorder(self, a, b):
        """``_prefer`` is irreflexive, asymmetric, and total on keys."""
        assert not RoutingTable._prefer(a, a)
        assert not (RoutingTable._prefer(a, b) and RoutingTable._prefer(b, a))
        key = lambda ann: (len(ann.as_path), ann.origin_asn)
        if key(a) != key(b):
            assert RoutingTable._prefer(a, b) or RoutingTable._prefer(b, a)

    @given(anns=st.lists(announcements(), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_announce_never_keeps_a_beaten_route(self, anns):
        """Per network, the installed route beats every later duplicate."""
        table = RoutingTable()
        for ann in anns:
            table.announce(ann)
        for ann in anns:
            installed = table._by_len[ann.prefix_len][ann.network]
            assert not RoutingTable._prefer(ann, installed)


class TestHijackCaptureProperties:
    @given(
        victim_len=st.integers(min_value=16, max_value=23),
        specificity=st.integers(min_value=0, max_value=3),
        hosts=st.lists(
            st.integers(min_value=0, max_value=2**16 - 1),
            min_size=1,
            max_size=16,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_captured_ips_lie_inside_announced_networks(
        self, victim_len, specificity, hosts
    ):
        victim_net = ipaddress.ip_network(f"10.0.0.0/{victim_len}")
        victim = Prefix.from_network(victim_net, 100)
        table = RoutingTable()
        table.announce_prefix(victim, as_path=(300, 100))
        hijack = BgpHijack(
            attacker_asn=666,
            victim_prefixes=[victim],
            specificity=specificity,
        )
        hijack.apply(table)
        announced = [ann.network for ann in hijack.announcements()]
        base = int(victim_net.network_address)
        ips = [ipaddress.IPv4Address(base + h) for h in hosts]
        captured = hijack.captured_ips(table, ips)
        assert set(captured) <= set(ips)
        for ip in captured:
            assert any(ip in network for network in announced)

    @given(hosts=st.lists(st.integers(0, 255), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_purging_hijacks_restores_the_victim(self, hosts):
        victim = Prefix.from_network(ipaddress.ip_network("10.1.0.0/16"), 100)
        table = RoutingTable()
        table.announce_prefix(victim, as_path=(300, 100))
        hijack = BgpHijack(attacker_asn=666, victim_prefixes=[victim])
        hijack.apply(table)
        table.purge_hijacks()
        ips = [ipaddress.IPv4Address(f"10.1.0.{h}") for h in hosts]
        assert hijack.captured_ips(table, ips) == []


class TestScaleToSumProperties:
    @given(
        shape=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20
        ),
        slack=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=80, deadline=None)
    def test_total_conserved_and_floor_respected(self, shape, slack):
        assume(sum(shape) > 0)
        total = len(shape) + slack
        scaled = _scale_to_sum(shape, total)
        assert sum(scaled) == total
        assert len(scaled) == len(shape)
        assert all(value >= 1 for value in scaled)

    @given(entries=st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_all_tied_shape_splits_evenly(self, entries):
        scaled = _scale_to_sum([3.7] * entries, entries * 5)
        assert sum(scaled) == entries * 5
        assert max(scaled) - min(scaled) <= 1

    def test_minimum_total_gives_all_ones(self):
        assert _scale_to_sum([9.0, 1.0, 0.0], 3) == [1, 1, 1]

    def test_total_below_entries_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            _scale_to_sum([1.0, 1.0], 1)
