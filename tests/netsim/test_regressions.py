"""Regression tests for simulator determinism.

Two same-seeded graph-engine runs must evolve identical chains, with
the attacker and natural forks live, however the two instances are
built and stepped.
"""

from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec


def build(seed):
    return GraphSimulatorVec(
        GraphConfig(
            spec=GraphSpec.power_law(30, seed=4),
            failure_rate=0.1,
            steps_per_block=10,
            attacker_share=0.4,
            natural_fork_rate=0.2,
            seed=seed,
        )
    )


def chains(sim):
    return {label: list(fork.hashes) for label, fork in sim.forks.items()}


class TestCrossInstanceDeterminism:
    def test_same_seed_same_chains(self):
        sim_a = build(seed=11)
        sim_b = build(seed=11)
        sim_a.run(600)
        sim_b.run(600)
        assert sim_a.labels == sim_b.labels
        assert sim_a.heights == sim_b.heights
        assert chains(sim_a) == chains(sim_b)
        assert sim_a.fork_births == sim_b.fork_births

    def test_different_seeds_diverge(self):
        sim_a = build(seed=11)
        sim_b = build(seed=12)
        history_a, history_b = [], []
        for _ in range(600):
            sim_a.step()
            sim_b.step()
            history_a.append(sim_a.heights)
            history_b.append(sim_b.heights)
        assert history_a != history_b
