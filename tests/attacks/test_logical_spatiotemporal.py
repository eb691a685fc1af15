"""Tests for logical and spatio-temporal attacks."""

import numpy as np
import pytest

from repro.attacks.logical import LogicalAttack
from repro.attacks.results import AttackOutcome
from repro.attacks.spatiotemporal import SpatioTemporalPlan
from repro.crawler.timeseries import ConsensusTimeSeries
from repro.datagen.consensus import ConsensusDynamicsGenerator
from repro.datagen.population import PopulationGenerator
from repro.errors import AttackError
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec

from ..netsim.graph_crawl import crawl_every


@pytest.fixture(scope="module")
def census_snapshot(small_topology):
    return PopulationGenerator(small_topology, seed=4).generate()


class TestLogicalAttack:
    def test_assessment(self, census_snapshot):
        report = LogicalAttack(census_snapshot).assess()
        assert report.distinct_versions == 288
        assert report.dominant_version_share == pytest.approx(0.3628, abs=0.01)
        assert report.cve_exposure["CVE-2018-17144"] == 1.0  # all versions
        assert report.cve_exposure["CVE-2013-5700"] < 0.05  # ancient range

    def test_crash_victims_respects_version_ranges(self, census_snapshot):
        attack = LogicalAttack(census_snapshot)
        all_victims = attack.crash_victims("CVE-2018-17144")
        assert len(all_victims) == len(census_snapshot.up_nodes())
        old_victims = attack.crash_victims("CVE-2013-5700")
        assert len(old_victims) < len(all_victims)

    def test_unknown_cve_rejected(self, census_snapshot):
        with pytest.raises(AttackError):
            LogicalAttack(census_snapshot).crash_victims("CVE-0000-0000")

    def test_execute_crash_takes_nodes_offline(self, census_snapshot):
        attack = LogicalAttack(census_snapshot)
        result = attack.execute_crash("CVE-2018-17144")
        assert result.outcome is AttackOutcome.SUCCESS
        assert result.effort == 1.0  # one network-wide exploit
        assert list(result.victims) == attack.crash_victims("CVE-2018-17144")
        assert result.metric("crashed_fraction") == 1.0

    def test_adoption_reach(self, census_snapshot):
        reach = LogicalAttack(census_snapshot).adoption_reach(0.1, peers_per_node=8)
        assert reach["direct"] == pytest.approx(0.1)
        assert reach["relay"] == pytest.approx(1 - 0.9**8)
        assert reach["combined"] > reach["relay"]

    def test_adoption_validation(self, census_snapshot):
        attack = LogicalAttack(census_snapshot)
        with pytest.raises(AttackError):
            attack.adoption_reach(1.5)
        with pytest.raises(AttackError):
            attack.adoption_reach(0.5, peers_per_node=0)


class TestSpatioTemporalPlan:
    def test_plan_from_series(self, small_topology):
        node_ids = sorted(small_topology.all_node_ids())
        asns = np.array([small_topology.asn_of(n) for n in node_ids])
        series = ConsensusDynamicsGenerator(
            num_nodes=len(node_ids), seed=3, node_asns=asns
        ).generate(6 * 3600, 600.0)
        plan = SpatioTemporalPlan.from_series(series, topology=small_topology)
        assert len(plan.target_asns) == 5
        assert plan.synced_count >= 0
        assert plan.lagging_count > 0
        assert 0.0 < plan.spatial_coverage <= 1.0

    def test_plan_requires_asns(self):
        series = ConsensusDynamicsGenerator(num_nodes=100, seed=3).generate(
            3600, 600.0
        )
        with pytest.raises(AttackError):
            SpatioTemporalPlan.from_series(series)


class TestSpatioTemporalAttack:
    def test_combined_execution(self, tiny_topology):
        """§V-C on a live graph-engine run: plan from crawls, then cut
        the planned ASes off and feed the laggards a counterfeit chain.
        Graph node i is the topology's node i; the attacker's AS300
        hosts nodes 24-29."""
        asns = [tiny_topology.asn_of(node) for node in range(30)]
        laggards = np.zeros(30, dtype=bool)
        laggards[[24, 25, 26, 27]] = True  # attacker node 24 + 3 laggards
        spec = GraphSpec.power_law(30, seed=21).partitioned(laggards)

        def run(spec, **kwargs):
            return GraphSimulatorVec(
                GraphConfig(
                    spec=spec,
                    failure_rate=0.0,
                    steps_per_block=20,
                    attacker_node=24,
                    natural_fork_rate=0.0,
                    **kwargs,
                )
            )

        series = ConsensusTimeSeries.from_snapshots(
            crawl_every(
                run(spec, attacker_share=0.0),
                interval_steps=20,
                duration_steps=720,
                asns=asns,
            )
        )
        plan = SpatioTemporalPlan.from_series(
            series, topology=tiny_topology, num_ases=2
        )
        assert len(plan.target_asns) == 2
        assert plan.lagging_count >= 3
        assert plan.spatial_coverage > 0.0

        hijacked = np.isin(asns, plan.target_asns) & ~laggards
        sim = run(spec.partitioned(hijacked), attacker_share=0.3)
        sim.run(480)
        labels = sim.labels
        heights = np.asarray(sim.heights)
        misled = [n for n in (25, 26, 27) if labels[n] == "B"]
        assert misled
        honest_tip = sim.main.tip_height
        disrupted = (heights < honest_tip) | (np.asarray(labels) == "B")
        assert disrupted.mean() > 0.0
        assert disrupted[hijacked].all() or disrupted[~hijacked & ~laggards].all()
