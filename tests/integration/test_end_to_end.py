"""Integration tests: attack scenarios across subsystems, on the graph
engine.

Crawls of a live :class:`GraphSimulatorVec` run (30 s per step, 20
steps per block) feed the measurement schema; spatial attacks cut the
propagation graph; the temporal attacker is the engine's fork B.
"""

import numpy as np

from repro.analysis.vulnerable import max_vulnerable_nodes
from repro.attacks.spatial import SpatialAttack
from repro.crawler.timeseries import ConsensusTimeSeries
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.types import LagBand, lag_band

from ..netsim.graph_crawl import crawl, crawl_every

HOUR = 120  # steps


def node_mask(num_nodes, nodes):
    mask = np.zeros(num_nodes, dtype=bool)
    mask[list(nodes)] = True
    return mask


class TestMeasurementPipeline:
    """Crawl a live network into the analysis schema — §IV end to end."""

    def test_crawl_to_timeseries_to_analysis(self):
        laggards = [70, 71, 72]  # some persistent laggards
        sim = GraphSimulatorVec(
            GraphConfig(
                spec=GraphSpec.power_law(80, seed=2).partitioned(
                    node_mask(80, laggards)
                ),
                failure_rate=0.05,
                steps_per_block=20,
                attacker_share=0.0,
            )
        )
        snapshots = crawl_every(sim, interval_steps=20, duration_steps=3 * HOUR)
        series = ConsensusTimeSeries.from_snapshots(snapshots)
        assert series.num_nodes == 80
        behind = series.behind_at_least_series(1)
        assert behind[-1] >= 3  # the eclipsed nodes show up as lagging
        result = max_vulnerable_nodes(series, lag_threshold=1, t_minutes=30)
        assert result.max_nodes >= 3


class TestSpatialThenTemporal:
    """The §V-C pipeline: hijack creates laggards, feeding exploits them."""

    def test_combined_scenario(self, tiny_topology):
        # Graph node i is the topology's node i: AS100 hosts 0-11,
        # AS200 12-19, AS201 20-23 and the attacker's AS300 24-29.
        table = tiny_topology.build_routing_table()
        spatial = SpatialAttack(
            tiny_topology, attacker_asn=300, target_asn=200, target_fraction=0.9
        )
        victims = list(spatial.execute(table=table).victims)
        assert victims
        attacker = tiny_topology.nodes_in_as(300)[0]
        # The hijacker intercepts the victims' traffic: they share its
        # side of the cut.
        mask = node_mask(30, victims + [attacker])
        sim = GraphSimulatorVec(
            GraphConfig(
                spec=GraphSpec.power_law(30, seed=5).partitioned(mask),
                failure_rate=0.02,
                steps_per_block=20,
                attacker_share=0.3,
                attacker_node=attacker,
                attack_start_step=6 * HOUR,
            )
        )
        sim.run(6 * HOUR - 1)
        heights = sim.heights
        tip = max(heights)
        assert all(tip - heights[v] >= 1 for v in victims)
        # Temporal phase: feed the laggards a counterfeit chain.
        sim.run(8 * HOUR)
        labels = sim.labels
        assert sum(labels[v] == "B" for v in victims) >= 1
        assert all(labels[n] != "B" for n in range(30) if not mask[n])


class TestLagSamplerAgainstCrawler:
    def test_consistent_band_counts(self):
        sim = GraphSimulatorVec(
            GraphConfig(
                spec=GraphSpec.power_law(40, seed=9).partitioned(
                    node_mask(40, [30])
                ),
                failure_rate=0.0,
                steps_per_block=20,
                attacker_share=0.0,
            )
        )
        sim.run(2 * HOUR)
        snapshot = crawl(sim)
        heights = sim.heights
        counts = {band: 0 for band in LagBand}
        for height in heights:
            counts[lag_band(max(heights) - height)] += 1
        assert snapshot.band_counts() == counts
        assert counts[LagBand.SYNCED] == round(sim.synced_fraction() * 40)
        assert counts[LagBand.SYNCED] < 40  # the eclipsed node lags
