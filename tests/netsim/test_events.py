"""Cross-instance determinism of the step engine.

Every draw of a :class:`GraphSimulatorVec` comes from its own
``RngStreams``, never from process-global state, so instances replay
identically regardless of how many ran before them or how their
construction and stepping interleave.  This is what makes trials safe
to run in any worker process.
"""

from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec

STEPS = 300


def make_sim(seed=5):
    return GraphSimulatorVec(
        GraphConfig(
            spec=GraphSpec.power_law(40, seed=1),
            failure_rate=0.1,
            steps_per_block=10,
            attacker_share=0.3,
            seed=seed,
        )
    )


def trajectory(sim, steps=STEPS):
    states = []
    for _ in range(steps):
        sim.step()
        states.append(sim.snapshot())
    return states


class TestCrossInstanceDeterminism:
    def test_same_schedule_same_pop_ordering(self):
        assert trajectory(make_sim()) == trajectory(make_sim())

    def test_fresh_instance_unaffected_by_process_history(self):
        reference = trajectory(make_sim())
        # Burn through several instances (and many draws) first: any
        # process-global RNG state would shift the next run.
        for seed in (1, 2, 3):
            trajectory(make_sim(seed=seed))
        assert trajectory(make_sim()) == reference

    def test_interleaved_construction_stays_independent(self):
        sim_a = make_sim()
        sim_b = make_sim()
        states_a, states_b = [], []
        for _ in range(STEPS):
            sim_a.step()
            sim_b.step()
            states_a.append(sim_a.snapshot())
            states_b.append(sim_b.snapshot())
        assert states_a == states_b
        assert states_a == trajectory(make_sim())
