"""Block production and the attacker's mining on the graph engine.

The engine mines by Bernoulli draws: each step the honest miners find
a block with probability ``(1 - attacker_share) / steps_per_block`` and
the attacker, once its attack is live, with ``attacker_share /
steps_per_block`` on its own counterfeit fork B.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.netsim.timeline import Timeline, TimelineEvent


def make_sim(num_nodes=30, seed=3, **kwargs):
    kwargs.setdefault("failure_rate", 0.0)
    kwargs.setdefault("natural_fork_rate", 0.0)
    return GraphSimulatorVec(
        GraphConfig(spec=GraphSpec.power_law(num_nodes, seed=seed), **kwargs)
    )


def attacker_blocks(sim):
    return 0 if sim.attacker_fork is None else len(sim.attacker_fork.hashes)


class TestMiningPool:
    def test_invalid_share_rejected(self):
        spec = GraphSpec.power_law(10)
        with pytest.raises(ConfigurationError):
            GraphConfig(spec=spec, attacker_share=-0.1)
        with pytest.raises(ConfigurationError):
            GraphConfig(spec=spec, attacker_share=1.5)
        with pytest.raises(ConfigurationError):
            TimelineEvent(step=5, attacker_share=1.0)

    def test_counterfeit_mode_toggles(self):
        sim = make_sim(
            steps_per_block=10, attacker_share=0.3, attack_start_step=200
        )
        sim.attach_timeline(Timeline([TimelineEvent(step=600, attacker_share=0.0)]))
        sim.run(199)
        assert sim.attacker_fork is None  # not yet in counterfeit mode
        sim.run(400)
        assert sim.attacker_fork is not None and sim.attacker_fork.counterfeit
        mined = attacker_blocks(sim)
        sim.run(400)
        assert attacker_blocks(sim) == mined  # back to idle


class TestMinerProduction:
    def test_pool_produces_blocks_at_expected_rate(self):
        sim = make_sim(steps_per_block=20, attacker_share=0.0)
        sim.run(10 * 20)
        # ~10 blocks in 10 intervals (Bernoulli noise).
        assert 3 <= sim.main.tip_height <= 20
        assert max(sim.heights) == sim.main.tip_height

    def test_hash_share_ratio_respected(self):
        sim = make_sim(seed=8, steps_per_block=20, attacker_share=0.3)
        sim.run(150 * 20)
        honest = sim.main.tip_height
        attacker = attacker_blocks(sim)
        total = honest + attacker
        assert total > 60
        assert attacker / total == pytest.approx(0.3, abs=0.12)

    def test_inactive_pool_mines_nothing(self):
        idle = make_sim(steps_per_block=20, attacker_share=0.0)
        late = make_sim(
            steps_per_block=20, attacker_share=0.3, attack_start_step=10**6
        )
        for sim in (idle, late):
            sim.run(20 * 20)
            assert sim.attacker_fork is None
            assert "B" not in sim.fork_fractions()

    def test_counterfeit_blocks_capture_eclipsed_victim_only(self):
        """Figure 5: the attacker feeds its chain to an isolated victim;
        the honest network (with the majority hash share) stays on the
        honest chain."""
        spec = GraphSpec.power_law(20, seed=11)
        victim = int(spec.indices[spec.indptr[0]])  # the attacker's peer
        mask = np.zeros(20, dtype=bool)
        mask[[0, victim]] = True  # the attacker (node 0) and its victim
        sim = GraphSimulatorVec(
            GraphConfig(
                spec=spec.partitioned(mask),
                failure_rate=0.0,
                steps_per_block=20,
                attacker_share=0.3,
                natural_fork_rate=0.0,
            )
        )
        for _ in range(40 * 20):
            sim.step()
            labels = sim.labels
            assert all(labels[n] != "B" for n in range(20) if not mask[n])
        assert attacker_blocks(sim) >= 1
        assert sim.labels[victim] == "B"

    def test_miner_stop(self):
        sim = make_sim(steps_per_block=20, attacker_share=0.5)
        sim.attach_timeline(Timeline([TimelineEvent(step=200, attacker_share=0.0)]))
        sim.run(199)
        mined = attacker_blocks(sim)
        assert mined >= 1
        sim.run(10 * 20)
        assert attacker_blocks(sim) == mined
