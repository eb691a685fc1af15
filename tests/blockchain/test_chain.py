"""The engines' block tree: :class:`ForkChain` branches and the
longest-chain rule of the graph engine."""

import pytest

from repro.errors import SimulationError
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.netsim.grid import ForkChain


def main_chain(blocks):
    fork = ForkChain(label="A", parent=None, branch_height=0)
    for _ in range(blocks):
        fork.extend()
    return fork


def branch(parent, label, branch_height, blocks):
    fork = ForkChain(label=label, parent=parent, branch_height=branch_height)
    for _ in range(blocks):
        fork.extend()
    return fork


class TestBasics:
    def test_root_must_be_genesis(self):
        root = main_chain(3)
        assert root.hash_at(0) == "genesis"
        # A branch resolves every height at or below its fork point
        # through its parent, down to the same genesis.
        fork = branch(root, "C", 2, 1)
        assert fork.hash_at(0) == "genesis"
        assert [fork.hash_at(h) for h in (1, 2)] == root.hashes[:2]

    def test_extension_moves_tip(self):
        fork = main_chain(1)
        new_hash = fork.extend()
        assert fork.tip_height == 2
        assert fork.tip_hash() == new_hash

    def test_bad_height_rejected(self):
        with pytest.raises(SimulationError):
            main_chain(2).hash_at(5)

    def test_unknown_lookup_raises(self):
        sim = GraphSimulatorVec(GraphConfig(spec=GraphSpec.power_law(10)))
        assert sim.fork_of("A") is sim.main
        with pytest.raises(SimulationError):
            sim.fork_of("Z")

    def test_main_chain_order(self):
        fork = main_chain(3)
        assert [fork.hash_at(h) for h in range(4)] == ["genesis", *fork.hashes]

    def test_block_at_height(self):
        fork = main_chain(1)
        assert fork.hash_at(0) == "genesis"
        assert fork.hash_at(1) == fork.hashes[0]
        with pytest.raises(SimulationError):
            fork.hash_at(2)


def label_changes(steps=600):
    """Per-node (old label, new label, old height, new height) switches
    of a run with frequent natural forks."""
    sim = GraphSimulatorVec(
        GraphConfig(
            spec=GraphSpec.power_law(40, seed=7),
            failure_rate=0.1,
            steps_per_block=10,
            attacker_share=0.0,
            natural_fork_rate=0.5,
        )
    )
    changes = []
    labels, heights = sim.labels, sim.heights
    for _ in range(steps):
        sim.step()
        new_labels, new_heights = sim.labels, sim.heights
        changes.extend(
            (a, b, h, g)
            for a, b, h, g in zip(labels, new_labels, heights, new_heights)
            if a != b
        )
        labels, heights = new_labels, new_heights
    return changes


class TestForksAndReorgs:
    def test_tie_keeps_incumbent(self):
        # A node only leaves its branch for a strictly higher one.
        changes = label_changes()
        assert changes
        assert all(new > old for _, _, old, new in changes)

    def test_longer_branch_reorgs(self):
        # Nodes on natural forks move back onto the main chain A once
        # it is longer.
        reorgs = [c for c in label_changes() if c[0] != "A" and c[1] == "A"]
        assert reorgs
        assert all(new > old for _, _, old, new in reorgs)

    def test_is_on_main_chain(self):
        root = main_chain(3)
        fork = branch(root, "C", 1, 2)
        assert fork.shares_prefix_with(root, 1)
        assert not fork.shares_prefix_with(root, 2)
        assert not fork.shares_prefix_with(root, 4)  # above both tips
