"""Tests for spatial attacks: BGP hijack, stratum isolation, nation block."""

import numpy as np
import pytest

from repro.attacks.results import AttackOutcome
from repro.attacks.spatial import NationStateBlock, SpatialAttack, StratumIsolation
from repro.errors import AttackError
from repro.netsim.graph import (
    GraphConfig,
    GraphSimulatorVec,
    GraphSpec,
    hijack_partition_mask,
)
from repro.topology.bgp import BgpHijack


class TestSpatialAttack:
    def test_validation(self, tiny_topology):
        with pytest.raises(AttackError):
            SpatialAttack(tiny_topology, attacker_asn=999, target_asn=1234)
        with pytest.raises(AttackError):
            SpatialAttack(
                tiny_topology, attacker_asn=999, target_asn=100, target_fraction=0.0
            )

    def test_plan_is_greedy_prefix_set(self, tiny_topology):
        attack = SpatialAttack(
            tiny_topology, attacker_asn=300, target_asn=100, target_fraction=0.5
        )
        plan = attack.plan()
        assert 1 <= len(plan) <= tiny_topology.pool(100).num_prefixes

    def test_execute_captures_target_fraction(self, tiny_topology):
        attack = SpatialAttack(
            tiny_topology, attacker_asn=300, target_asn=100, target_fraction=0.8
        )
        result = attack.execute()
        assert result.outcome is AttackOutcome.SUCCESS
        assert result.metric("captured_fraction") >= 0.8
        assert result.effort <= tiny_topology.pool(100).num_prefixes
        assert all(
            tiny_topology.asn_of(victim) == 100 for victim in result.victims
        )

    def test_execute_eclipses_network_victims(self, tiny_topology):
        """The hijacked routing table cuts the victim AS out of the
        propagation graph (Apostolaki et al.'s BGP partition)."""
        table = tiny_topology.build_routing_table()
        attack = SpatialAttack(
            tiny_topology, attacker_asn=300, target_asn=100, target_fraction=0.9
        )
        attack.execute(table=table)
        spec = GraphSpec.from_topology(tiny_topology, seed=1)
        mask = hijack_partition_mask(
            spec, tiny_topology, BgpHijack(attacker_asn=300), table
        )
        # The victim AS lands on the attacker's side of the cut (AS300's
        # own prefixes route to AS300 legitimately).
        assert [spec.node_ids[i] for i in np.flatnonzero(mask)] == [100, 300]
        cut = spec.partitioned(mask)
        src = np.repeat(np.arange(cut.num_nodes), cut.degrees)
        assert cut.num_edges < spec.num_edges
        assert (mask[src] == mask[cut.indices]).all()

    def test_paper_scale_hetzner(self, paper_topology):
        """§V-A: ~15 prefixes cut 95% of AS24940's 1,030 nodes."""
        attack = SpatialAttack(
            paper_topology, attacker_asn=666, target_asn=24940, target_fraction=0.95
        )
        result = attack.execute()
        assert result.outcome is AttackOutcome.SUCCESS
        assert result.effort <= 25
        assert result.num_victims >= 0.95 * 1030

    def test_cost_curve_exposed(self, tiny_topology):
        attack = SpatialAttack(tiny_topology, attacker_asn=300, target_asn=100)
        curve = attack.cost_curve()
        assert curve.asn == 100


class TestStratumIsolation:
    def test_plan_minimal_as_set(self):
        isolation = StratumIsolation(target_hash_share=0.60)
        plan = isolation.plan()
        assert len(plan) <= 3
        assert 45102 in plan

    def test_execute_isolates_share(self):
        result = StratumIsolation(target_hash_share=0.65).execute()
        assert result.outcome is AttackOutcome.SUCCESS
        assert result.metric("isolated_hash_share") >= 0.65
        assert result.effort == 3  # the paper's 3-AS headline

    def test_execute_stops_network_pools(self):
        """A pool stops when every one of its stratum ASes is hijacked;
        a pool with a stratum outside the plan keeps mining."""
        isolation = StratumIsolation(target_hash_share=0.60)
        hijacked = set(isolation.plan())
        stopped = {
            name
            for name, _, asns, _ in isolation.mapping.rows
            if set(asns) <= hijacked
        }
        assert "Antpool" in stopped  # stratum in AS45102 only
        assert "F2Pool" not in stopped  # also reachable via AS58563
        assert sum(
            share for name, share, _, _ in isolation.mapping.rows if name in stopped
        ) >= 0.5

    def test_validation(self):
        with pytest.raises(AttackError):
            StratumIsolation(target_hash_share=0.0)


class TestNationStateBlock:
    def test_china_blocks_majority_of_mining(self, paper_topology):
        """§III: a Chinese ban severs ~60% of mining traffic."""
        result = NationStateBlock(paper_topology, "CN").execute()
        assert result.outcome is AttackOutcome.SUCCESS
        assert result.metric("blocked_hash_share") >= 0.60
        assert result.metric("blocked_node_fraction") > 0.05

    def test_unknown_country_raises(self, paper_topology):
        with pytest.raises(AttackError):
            NationStateBlock(paper_topology, "ZZ").execute()

    def test_network_side_effects(self, tiny_topology):
        """The blocked nodes drop out of the propagation graph: cut
        off, they never hear of a block."""
        result = NationStateBlock(tiny_topology, "CN").execute()
        victims = list(result.victims)
        assert victims
        mask = np.zeros(30, dtype=bool)  # graph node i = topology node i
        mask[victims] = True
        sim = GraphSimulatorVec(
            GraphConfig(
                spec=GraphSpec.power_law(30, seed=3).partitioned(mask),
                failure_rate=0.0,
                steps_per_block=20,
                attacker_share=0.0,
                natural_fork_rate=0.0,
            )
        )
        sim.run(200)
        heights = np.asarray(sim.heights)
        assert (heights[~mask] >= 1).all()
        assert (heights[mask] == 0).all()
