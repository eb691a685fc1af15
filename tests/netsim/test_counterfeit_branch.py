"""The attacker's counterfeit fork B on the graph engine.

The attacker (``attacker_node``) mines fork B privately and never
adopts the honest chain, so the victims it reaches see only B.
"""

import numpy as np

from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec


def captured_victim_sim(seed=91, steps=30 * 20):
    """The attacker (node 0) and one of its peers, cut off together."""
    spec = GraphSpec.power_law(20, seed=seed)
    victim = int(spec.indices[spec.indptr[0]])
    mask = np.zeros(20, dtype=bool)
    mask[[0, victim]] = True
    sim = GraphSimulatorVec(
        GraphConfig(
            spec=spec.partitioned(mask),
            failure_rate=0.0,
            steps_per_block=20,
            attacker_share=0.3,
            natural_fork_rate=0.0,
        )
    )
    sim.run(steps)
    return sim, victim


class TestPrivateBranch:
    def test_counterfeit_blocks_chain_together(self):
        sim, _ = captured_victim_sim()
        fork = sim.attacker_fork
        assert fork is not None and fork.counterfeit
        assert len(fork.hashes) >= 2
        # The branch forks off the honest chain and every block above
        # the fork point is the attacker's own.
        assert fork.parent is sim.main
        assert fork.shares_prefix_with(sim.main, fork.branch_height)
        assert not fork.shares_prefix_with(sim.main, fork.branch_height + 1)
        assert fork.tip_height - fork.branch_height == len(fork.hashes)
        assert len(set(fork.hashes)) == len(fork.hashes)

    def test_inv_suppression_blocks_honest_leak(self):
        """The attacker node must not pass honest blocks to victims."""
        sim, victim = captured_victim_sim(seed=95, steps=60 * 20)
        # The honest chain outgrew the counterfeit one ...
        assert sim.main.tip_height > sim.attacker_fork.tip_height
        # ... yet the attacker stays pinned on B, and so does its victim.
        assert sim.labels[0] == "B"
        assert sim.labels[victim] == "B"
        assert sim.heights[victim] == sim.attacker_fork.tip_height
