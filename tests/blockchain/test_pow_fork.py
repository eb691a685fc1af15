"""Block production and fork bookkeeping of the graph engine.

Each step the honest miners find a block with probability
``(1 - attacker_share) / steps_per_block`` and the attacker with
``attacker_share / steps_per_block``; the engine records every fork's
birth and death step.
"""

import pytest

from repro.errors import ConfigurationError
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec


def make_sim(num_nodes=10, **kwargs):
    kwargs.setdefault("failure_rate", 0.0)
    kwargs.setdefault("natural_fork_rate", 0.0)
    return GraphSimulatorVec(
        GraphConfig(spec=GraphSpec.power_law(num_nodes, seed=1), **kwargs)
    )


class TestMiningModel:
    def test_mean_block_time_scales_inverse_share(self):
        sim = make_sim(steps_per_block=5, attacker_share=0.3)
        sim.run(12_000)
        mean = sim.step_count / len(sim.attacker_fork.hashes)
        # 30% of hash power: one block per 5 / 0.3 = 16.7 steps (the
        # paper's slow counterfeit chain, ~2000 s at 600 s per block).
        assert mean == pytest.approx(5 / 0.3, rel=0.12)

    def test_expected_interval(self):
        sim = make_sim(steps_per_block=5, attacker_share=0.0)
        sim.run(5_000)
        assert sim.step_count / sim.main.tip_height == pytest.approx(5, rel=0.1)

    def test_invalid_share_rejected(self):
        spec = GraphSpec.power_law(10)
        for share in (-0.1, 1.0, 1.1):
            with pytest.raises(ConfigurationError):
                GraphConfig(spec=spec, attacker_share=share)

    def test_winner_distribution_tracks_share(self):
        sim = make_sim(steps_per_block=2, attacker_share=0.3, seed=2)
        sim.run(8_000)
        honest = sim.main.tip_height
        attacker = len(sim.attacker_fork.hashes)
        assert honest / (honest + attacker) == pytest.approx(0.7, abs=0.03)


class TestForkTracker:
    def test_lifecycle(self):
        sim = make_sim(
            num_nodes=40,
            failure_rate=0.5,
            steps_per_block=5,
            attacker_share=0.0,
            natural_fork_rate=0.5,
        )
        sim.run(300)
        lifetimes = sim.fork_lifetimes_in_blocks()
        assert lifetimes
        for label, lifetime in lifetimes.items():
            assert label != "A"  # the main chain never dies
            born, died = sim.fork_births[label], sim.fork_deaths[label]
            assert born <= died <= sim.step_count
            assert lifetime == pytest.approx((died - born) / 5)

    def test_counterfeit_tracking(self):
        sim = make_sim(
            num_nodes=40,
            failure_rate=0.5,
            steps_per_block=5,
            attacker_share=0.3,
            natural_fork_rate=0.5,
        )
        sim.run(300)
        counterfeit = {l for l, fork in sim.forks.items() if fork.counterfeit}
        assert counterfeit == {"B"}
        # The attacker keeps its own fork alive.
        assert "B" not in sim.fork_deaths
        assert len(sim.forks) > 2  # natural forks were tracked too

    def test_mean_lifetime_none_when_unresolved(self):
        sim = make_sim(steps_per_block=20, attacker_share=0.3)
        sim.run(400)
        assert sim.attacker_fork is not None
        assert sim.fork_lifetimes_in_blocks() == {}
