"""Tests for the paper-calibrated topology builder.

These are the spatial calibration audits: every pinned Table II value
and the §V-A coverage statistics must reproduce.
"""

import itertools

import pytest

from repro.errors import ConfigurationError
from repro.topology.asn import TOR_PSEUDO_ASN
from repro.topology.builder import (
    PAPER_TOP_AS_PROFILES,
    PAPER_TOTAL_ASES,
    PAPER_TOTAL_NODES,
    PaperTopologyBuilder,
    _scale_to_sum,
    build_paper_topology,
)


def coverage(counts, fraction):
    ordered = sorted(counts.values(), reverse=True)
    total = sum(ordered)
    cumulative = 0
    for rank, count in enumerate(ordered, start=1):
        cumulative += count
        if cumulative >= fraction * total:
            return rank
    return len(ordered)


class TestScaleToSum:
    def test_exact_total(self):
        result = _scale_to_sum([5.0, 3.0, 2.0], 100)
        assert sum(result) == 100

    def test_minimum_one_each(self):
        result = _scale_to_sum([100.0, 0.001, 0.001], 10)
        assert all(value >= 1 for value in result)
        assert sum(result) == 10

    def test_too_small_total_rejected(self):
        with pytest.raises(ConfigurationError):
            _scale_to_sum([1.0, 1.0, 1.0], 2)


class TestPaperCalibration:
    def test_totals(self, paper_topology):
        summary = paper_topology.summary()
        assert summary["nodes"] == PAPER_TOTAL_NODES
        assert summary["ases"] == PAPER_TOTAL_ASES

    def test_table2_as_counts_pinned(self, paper_topology):
        counts = paper_topology.nodes_per_as()
        expected = {
            24940: 1030,
            16276: 697,
            37963: 640,
            16509: 609,
            14061: 460,
            7922: 414,
            4134: 394,
            TOR_PSEUDO_ASN: 319,
            51167: 288,
            45102: 279,
        }
        for asn, nodes in expected.items():
            assert counts[asn] == nodes

    def test_table2_org_counts_pinned(self, paper_topology):
        per_org = paper_topology.nodes_per_org()
        assert per_org["hetzner"] == 1030
        assert per_org["amazon"] == 756  # 609 + 147 across two ASes
        assert per_org["ovh"] == 700
        assert per_org["digitalocean"] == 503

    def test_coverage_counts_match_table3(self, paper_topology):
        counts = paper_topology.nodes_per_as()
        assert coverage(counts, 0.50) == 24
        assert abs(coverage(counts, 0.30) - 8) <= 1

    def test_org_coverage_tighter_than_as(self, paper_topology):
        as_counts = paper_topology.nodes_per_as()
        org_counts = paper_topology.nodes_per_org()
        assert coverage(org_counts, 0.50) <= coverage(as_counts, 0.50)
        # Figure 3: ~21 organizations cover 50%.
        assert abs(coverage(org_counts, 0.50) - 21) <= 2

    def test_figure4_prefix_pool_sizes(self, paper_topology):
        expected = {24940: 51, 16276: 104, 37963: 454, 16509: 2969, 14061: 1430}
        for asn, prefixes in expected.items():
            assert paper_topology.pool(asn).num_prefixes == prefixes

    def test_figure4_concentration_shapes(self, paper_topology):
        """Hetzner concentrated (~15 prefixes for 95%), Amazon diffuse."""
        def k95(asn):
            counts = paper_topology.pool(asn).node_counts()
            total = paper_topology.pool(asn).num_nodes
            cumulative = 0
            for rank, (_, count) in enumerate(counts, start=1):
                cumulative += count
                if cumulative >= 0.95 * total:
                    return rank
            return len(counts)

        assert k95(24940) <= 25
        assert k95(16509) > 140

    def test_tor_nodes_have_no_pool(self, paper_topology):
        assert TOR_PSEUDO_ASN not in paper_topology.pools
        assert len(paper_topology.nodes_in_as(TOR_PSEUDO_ASN)) == 319

    def test_deterministic_per_seed(self):
        a = build_paper_topology(seed=3, scale=0.2)
        b = build_paper_topology(seed=3, scale=0.2)
        assert a.nodes_per_as() == b.nodes_per_as()
        sample = a.all_node_ids()[:50]
        for node_id in sample:
            if a.asn_of(node_id) != TOR_PSEUDO_ASN:
                assert a.ip_of(node_id) == b.ip_of(node_id)

    def test_seed_changes_placement(self):
        a = build_paper_topology(seed=3, scale=0.2)
        b = build_paper_topology(seed=4, scale=0.2)
        moved = sum(
            1
            for node_id in a.all_node_ids()[:200]
            if a.asn_of(node_id) != TOR_PSEUDO_ASN
            and b.asn_of(node_id) != TOR_PSEUDO_ASN
            and a.ip_of(node_id) != b.ip_of(node_id)
        )
        assert moved > 0


def scan_nodes_in_as(topo, asn):
    """The per-call scan ``nodes_in_as`` did before it kept per-AS lists."""
    return [nid for nid, a in topo._node_asn.items() if a == asn]


class TestNodesInAs:
    def test_paper_topology_lists_match_the_scan(self, paper_topology):
        for asn in [a.asn for a in paper_topology.ases] + [424242]:
            expected = scan_nodes_in_as(paper_topology, asn)
            assert paper_topology.nodes_in_as(asn) == expected
            pool = paper_topology.pools.get(asn)
            assert paper_topology.node_ips_in_as(asn) == (
                [pool.node_ip(nid) for nid in expected] if pool else []
            )

    def test_hand_built_lists_keep_hosting_order(self, tiny_topology):
        topo = tiny_topology
        node_id = 100
        for asn in (300, 100, 300, 201, TOR_PSEUDO_ASN, 100):
            if asn not in topo.ases:
                topo.add_organization("tor", "TOR")
                topo.add_as(asn, "TOR", "tor")
            topo.host_node(node_id, asn)
            node_id += 1
        for asn in (100, 200, 201, 300, TOR_PSEUDO_ASN):
            assert topo.nodes_in_as(asn) == scan_nodes_in_as(topo, asn)
        assert topo.nodes_in_as(300)[-2:] == [100, 102]

    def test_returned_list_is_a_copy(self, tiny_topology):
        tiny_topology.nodes_in_as(100).append(-1)
        assert -1 not in tiny_topology.nodes_in_as(100)


class TestScaling:
    def test_scale_shrinks_proportionally(self, small_topology):
        summary = small_topology.summary()
        assert summary["nodes"] == pytest.approx(PAPER_TOTAL_NODES * 0.2, rel=0.05)
        counts = small_topology.nodes_per_as()
        assert counts[24940] == pytest.approx(206, abs=2)

    def test_scale_preserves_coverage_shape(self, small_topology):
        counts = small_topology.nodes_per_as()
        assert coverage(counts, 0.50) <= 30

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            build_paper_topology(scale=0.0)
        with pytest.raises(ConfigurationError):
            build_paper_topology(scale=1.5)

    def test_total_below_pinned_rejected(self):
        with pytest.raises(ConfigurationError):
            PaperTopologyBuilder(total_nodes=1000)

    def test_profiles_cover_paper_totals(self):
        pinned = sum(p.nodes for p in PAPER_TOP_AS_PROFILES)
        assert pinned < PAPER_TOTAL_NODES
