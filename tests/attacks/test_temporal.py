"""Tests for the temporal attack: target selection, and counterfeit
feeding on the graph engine.

On the graph engine the temporal attacker is the pinned
``attacker_node`` mining fork B from ``attack_start_step``; laggards it
shares a partition with adopt B once it outgrows their view.  Crawls
of the run (30 s per step, 20 steps per block) feed the planner.
"""

import numpy as np
import pytest

from repro.attacks.temporal import TemporalAttackPlan
from repro.crawler.timeseries import ConsensusTimeSeries
from repro.datagen.consensus import ConsensusDynamicsGenerator
from repro.errors import AttackError, ConfigurationError
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.netsim.timeline import Timeline, TimelineEvent

from ..netsim.graph_crawl import crawl_every

HOUR = 120  # steps


def attack_network(victims=(), seed=12, attack_start_step=0, **kwargs):
    """30 nodes; ``victims`` share a partition with the attacker (node 0)."""
    spec = GraphSpec.power_law(30, seed=seed)
    mask = np.zeros(30, dtype=bool)
    if victims:
        mask[[0, *victims]] = True
        spec = spec.partitioned(mask)
    sim = GraphSimulatorVec(
        GraphConfig(
            spec=spec,
            failure_rate=0.0,
            steps_per_block=20,
            attacker_share=kwargs.pop("attacker_share", 0.3),
            attack_start_step=attack_start_step,
            natural_fork_rate=0.0,
            **kwargs,
        )
    )
    return sim, mask


def peers_of_attacker(seed=12, count=3):
    """The attacker's highest-index peers (honest blocks surface at the
    lowest-index nodes, so these do not mine)."""
    spec = GraphSpec.power_law(30, seed=seed)
    row = spec.indices[spec.indptr[0] : spec.indptr[1]].tolist()
    return sorted(set(row) - {0}, reverse=True)[:count]


class TestTemporalAttackPlan:
    def test_from_series(self):
        series = ConsensusDynamicsGenerator(num_nodes=800, seed=2).generate(
            14_400, 60.0
        )
        plan = TemporalAttackPlan.from_series(series, window_minutes=10)
        assert plan.victim_count > 0
        assert plan.min_time_seconds > 0
        assert plan.rate == 0.8

    def test_victim_cap(self):
        series = ConsensusDynamicsGenerator(num_nodes=800, seed=2).generate(
            14_400, 60.0
        )
        plan = TemporalAttackPlan.from_series(series, victim_cap=50)
        assert plan.victim_count <= 50

    def test_feasibility_reflects_bound(self):
        plan = TemporalAttackPlan(
            victim_count=500,
            window_minutes=10,
            min_time_seconds=589,
            rate=0.8,
            probability=0.8,
        )
        assert plan.feasible  # 589 s fits in 600 s — the paper's example
        tight = TemporalAttackPlan(
            victim_count=1500,
            window_minutes=10,
            min_time_seconds=1765,
            rate=0.8,
            probability=0.8,
        )
        assert not tight.feasible


class TestTemporalAttackExecution:
    def test_validation(self):
        spec = GraphSpec.power_law(30)
        with pytest.raises(ConfigurationError):
            GraphConfig(spec=spec, attacker_node=999)
        with pytest.raises(ConfigurationError):
            GraphConfig(spec=spec, attacker_share=1.0)

    def test_select_victims_prefers_laggards(self):
        victims = peers_of_attacker()
        sim, _ = attack_network(victims, attacker_share=0.0)
        series = ConsensusTimeSeries.from_snapshots(
            crawl_every(sim, interval_steps=2, duration_steps=4 * HOUR)
        )
        plan = TemporalAttackPlan.from_series(series, window_minutes=10)
        # The cut-off peers (and the idle attacker's own node, cut off
        # with them) lag for hours; a block reaches everyone else
        # within minutes.
        assert plan.victim_count == len(victims) + 1

    def test_launch_requires_victims(self):
        sim, _ = attack_network(attacker_share=0.0)
        series = ConsensusTimeSeries.from_snapshots(
            crawl_every(sim, interval_steps=2, duration_steps=HOUR)
        )
        with pytest.raises(AttackError):
            TemporalAttackPlan.from_series(series, window_minutes=10)

    def test_attack_misleads_lagging_victims(self):
        victims = peers_of_attacker()
        sim, mask = attack_network(victims, attack_start_step=6 * HOUR)
        sim.run(6 * HOUR - 1)
        heights = sim.heights
        tip = max(heights)
        assert all(tip - heights[v] >= 1 for v in victims)  # laggards
        assert sim.attacker_fork is None
        sim.run(8 * HOUR)
        labels = sim.labels
        misled = [v for v in victims if labels[v] == "B"]
        assert len(misled) >= 1
        assert sim.attacker_fork.counterfeit and sim.attacker_fork.hashes
        # The honest partition is untouched.
        assert all(labels[n] != "B" for n in range(30) if not mask[n])

    def test_stop_idles_attacker_pool(self):
        sim, _ = attack_network(peers_of_attacker(seed=13, count=1), seed=13)
        sim.attach_timeline(
            Timeline([TimelineEvent(step=5 * HOUR, attacker_share=0.0)])
        )
        sim.run(5 * HOUR - 1)
        assert sim.attacker_fork is not None
        mined_at_stop = len(sim.attacker_fork.hashes)
        sim.run(4 * HOUR)
        assert len(sim.attacker_fork.hashes) == mined_at_stop
