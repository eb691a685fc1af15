"""Lag-band sampling of a graph-engine run.

Crawls of a live :class:`GraphSimulatorVec` feed the Figure 6 schema:
each node's lag behind the highest chain, binned into
:class:`LagBand`s by :class:`NetworkSnapshot` and stacked over time by
:class:`ConsensusTimeSeries`.
"""

import numpy as np

from repro.crawler.timeseries import ConsensusTimeSeries
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.types import LagBand

from .graph_crawl import crawl, crawl_every


def network(num_nodes=20, seed=4, cut=()):
    spec = GraphSpec.power_law(num_nodes, seed=seed)
    if cut:
        mask = np.zeros(num_nodes, dtype=bool)
        mask[list(cut)] = True
        spec = spec.partitioned(mask)
    return GraphSimulatorVec(
        GraphConfig(
            spec=spec,
            failure_rate=0.0,
            steps_per_block=20,
            attacker_share=0.0,
            natural_fork_rate=0.0,
        )
    )


class TestLagSampler:
    def test_all_synced_initially(self):
        snapshot = crawl(network())
        assert snapshot.band_counts()[LagBand.SYNCED] == 20
        assert len(snapshot.synced_nodes()) == 20

    def test_eclipsed_nodes_fall_behind(self):
        sim = network(cut=[15, 16])
        while max(sim.heights) == 0:
            sim.step()
        sim.run(5)
        assert max(sim.heights) == 1
        sample = crawl(sim)
        assert sample.band_counts()[LagBand.BEHIND_1] == 2
        assert len(sample.behind_nodes(1)) == 2
        assert len(sample.behind_nodes(2)) == 0

    def test_offline_nodes_excluded(self):
        sample = crawl(network(), down={3})
        assert sum(sample.band_counts().values()) == 19

    def test_stacked_series_shape(self):
        snapshots = crawl_every(network(), interval_steps=10, duration_steps=200)
        series = ConsensusTimeSeries.from_snapshots(snapshots)
        stacked = series.stacked_series()
        assert [band for band, _ in stacked] == list(LagBand.ordered())
        assert all(len(counts) == len(snapshots) for _, counts in stacked)
        # Cumulative bottom-up: the top curve counts every up node.
        assert (stacked[-1][1] == 20).all()

    def test_min_synced_fraction(self):
        # Without failures every block reaches every node within a few
        # steps, so crawls between blocks see a fully synced network;
        # an eclipsed node keeps the minimum below one.
        healthy = ConsensusTimeSeries.from_snapshots(
            crawl_every(network(), interval_steps=20, duration_steps=400)
        )
        eclipsed = ConsensusTimeSeries.from_snapshots(
            crawl_every(network(cut=[7]), interval_steps=20, duration_steps=400)
        )
        assert healthy.synced_fraction_series().max() == 1.0
        assert eclipsed.synced_fraction_series().max() <= 19 / 20
