"""Tests for BGP routing and hijacks."""

import ipaddress

import pytest

from repro.errors import RoutingError
from repro.topology.bgp import BgpAnnouncement, BgpHijack, RoutingTable
from repro.topology.prefix import Prefix


def net(cidr: str) -> ipaddress.IPv4Network:
    return ipaddress.IPv4Network(cidr)


def prefix(cidr: str, asn: int) -> Prefix:
    return Prefix.from_network(net(cidr), asn)


class TestBgpAnnouncement:
    def test_path_must_end_at_origin(self):
        with pytest.raises(RoutingError):
            BgpAnnouncement(network=net("10.0.0.0/16"), origin_asn=1, as_path=(2, 3))

    def test_covers(self):
        ann = BgpAnnouncement(network=net("10.0.0.0/16"), origin_asn=1)
        assert ann.covers(ipaddress.IPv4Address("10.0.5.5"))
        assert not ann.covers(ipaddress.IPv4Address("11.0.0.1"))


class TestRoutingTable:
    def test_longest_prefix_match_wins(self):
        table = RoutingTable()
        table.announce(BgpAnnouncement(network=net("10.0.0.0/8"), origin_asn=1, as_path=(1,)))
        table.announce(BgpAnnouncement(network=net("10.1.0.0/16"), origin_asn=2, as_path=(2,)))
        assert table.origin_of(ipaddress.IPv4Address("10.1.2.3")) == 2
        assert table.origin_of(ipaddress.IPv4Address("10.2.2.3")) == 1

    def test_shorter_path_wins_same_prefix(self):
        table = RoutingTable()
        table.announce(
            BgpAnnouncement(network=net("10.0.0.0/16"), origin_asn=1, as_path=(9, 1))
        )
        table.announce(
            BgpAnnouncement(network=net("10.0.0.0/16"), origin_asn=2, as_path=(2,))
        )
        assert table.origin_of(ipaddress.IPv4Address("10.0.0.1")) == 2

    def test_no_route_raises(self):
        with pytest.raises(RoutingError):
            RoutingTable().route(ipaddress.IPv4Address("1.2.3.4"))

    def test_withdraw(self):
        table = RoutingTable()
        table.announce(BgpAnnouncement(network=net("10.0.0.0/16"), origin_asn=1))
        assert table.withdraw(net("10.0.0.0/16"))
        assert not table.withdraw(net("10.0.0.0/16"))
        with pytest.raises(RoutingError):
            table.route(ipaddress.IPv4Address("10.0.0.1"))

    def test_announce_prefix_helper(self):
        table = RoutingTable()
        announcement = table.announce_prefix(prefix("10.0.0.0/24", 7))
        assert announcement.origin_asn == 7
        assert table.origin_of(ipaddress.IPv4Address("10.0.0.9")) == 7

    def test_purge_hijacks(self):
        table = RoutingTable()
        table.announce_prefix(prefix("10.0.0.0/16", 1), as_path=(0, 1))
        hijack = BgpHijack(attacker_asn=666, victim_prefixes=[prefix("10.0.0.0/16", 1)])
        hijack.apply(table)
        assert table.origin_of(ipaddress.IPv4Address("10.0.1.1")) == 666
        removed = table.purge_hijacks()
        assert removed >= 1
        assert table.origin_of(ipaddress.IPv4Address("10.0.1.1")) == 1

    def test_len_counts_routes(self):
        table = RoutingTable()
        table.announce_prefix(prefix("10.0.0.0/24", 1))
        table.announce_prefix(prefix("10.0.1.0/24", 1))
        assert len(table) == 2


class TestBgpHijack:
    def test_more_specific_announcements(self):
        hijack = BgpHijack(
            attacker_asn=666,
            victim_prefixes=[prefix("10.0.0.0/16", 1)],
            specificity=1,
        )
        announcements = hijack.announcements()
        assert len(announcements) == 2
        assert all(a.prefix_len == 17 for a in announcements)
        assert all(a.hijack and a.origin_asn == 666 for a in announcements)

    def test_specificity_capped_at_max_len(self):
        hijack = BgpHijack(
            attacker_asn=666,
            victim_prefixes=[prefix("10.0.0.0/23", 1)],
            specificity=8,
            max_prefix_len=24,
        )
        assert all(a.prefix_len == 24 for a in hijack.announcements())

    def test_equal_specificity_forged_path(self):
        """A /24 victim is hijacked at /24 via the shorter forged path."""
        table = RoutingTable()
        victim = prefix("10.0.0.0/24", 1)
        table.announce_prefix(victim, as_path=(0, 1))  # two-hop legit path
        hijack = BgpHijack(attacker_asn=666, victim_prefixes=[victim])
        hijack.apply(table)
        assert table.origin_of(ipaddress.IPv4Address("10.0.0.5")) == 666

    def test_captured_ips(self):
        table = RoutingTable()
        victim = prefix("10.0.0.0/24", 1)
        other = prefix("10.0.1.0/24", 1)
        table.announce_prefix(victim, as_path=(0, 1))
        table.announce_prefix(other, as_path=(0, 1))
        hijack = BgpHijack(attacker_asn=666, victim_prefixes=[victim])
        hijack.apply(table)
        ips = [ipaddress.IPv4Address("10.0.0.1"), ipaddress.IPv4Address("10.0.1.1")]
        captured = hijack.captured_ips(table, ips)
        assert captured == [ipaddress.IPv4Address("10.0.0.1")]

    def test_hijacked_routes_flagged(self):
        table = RoutingTable()
        victim = prefix("10.0.0.0/16", 1)
        table.announce_prefix(victim, as_path=(0, 1))
        BgpHijack(attacker_asn=666, victim_prefixes=[victim]).apply(table)
        assert all(route.hijack for route in table.hijacked_routes())
        assert len(table.hijacked_routes()) == 2
