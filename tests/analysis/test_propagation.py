"""Block propagation curves measured on the graph engine.

A block's coverage curve is the fraction of nodes at or above its
height, step by step from the step it was mined; ``t50``/``t90``/
``t99`` are the steps it takes to reach that coverage.
"""

import numpy as np

from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.netsim.latency import BITCOIN_PROPAGATION_2019


def height_history(spec, steps, failure_rate=0.0, steps_per_block=200):
    sim = GraphSimulatorVec(
        GraphConfig(
            spec=spec,
            failure_rate=failure_rate,
            steps_per_block=steps_per_block,
            attacker_share=0.0,
            natural_fork_rate=0.0,
            seed=81,
        )
    )
    history = np.empty((steps, spec.num_nodes), dtype=np.int64)
    for step in range(steps):
        sim.step()
        history[step] = sim.heights
    return history


def coverage_curve(history, height, nodes=None):
    """Coverage of ``height`` from the step it first appears."""
    if nodes is not None:
        history = history[:, nodes]
    assert history.max() >= height, "block never mined"
    born = int(np.argmax(history.max(axis=1) >= height))
    return (history[born:] >= height).mean(axis=1)


def steps_to(curve, fraction):
    reached = np.flatnonzero(curve >= fraction)
    return int(reached[0]) if reached.size else None


class TestPropagationProbe:
    def test_full_coverage_on_perfect_network(self):
        history = height_history(
            GraphSpec.power_law(60, seed=81), 200, steps_per_block=50
        )
        curve = coverage_curve(history, 1)
        assert curve[-1] == 1.0
        t50, t90, t99 = (steps_to(curve, q) for q in (0.5, 0.9, 0.99))
        assert t50 is not None and t90 is not None and t99 is not None
        assert t50 <= t90 <= t99

    def test_curve_monotone(self):
        spec = GraphSpec.power_law(
            60, seed=81, delay_model=BITCOIN_PROPAGATION_2019, tick_seconds=0.5
        )
        history = height_history(spec, 400, failure_rate=0.2, steps_per_block=40)
        for height in range(1, int(history.max()) + 1):
            curve = coverage_curve(history, height)
            assert (np.diff(curve) >= 0).all()

    def test_offline_nodes_excluded_from_denominator(self):
        cut = np.zeros(60, dtype=bool)
        cut[[55, 56]] = True
        spec = GraphSpec.power_law(60, seed=81).partitioned(cut)
        history = height_history(spec, 200, steps_per_block=50)
        # The cut-off nodes never see the block, so coverage of the
        # whole population stalls; over the reachable nodes it is full.
        assert coverage_curve(history, 1)[-1] < 1.0
        assert coverage_curve(history, 1, nodes=~cut)[-1] == 1.0

    def test_measure_many_and_median(self):
        history = height_history(
            GraphSpec.power_law(60, seed=81), 1500, steps_per_block=100
        )
        tips = history.max(axis=1)
        # Every block but the newest had time to spread.
        heights = range(1, int(tips[-1]))
        t90s = [steps_to(coverage_curve(history, h), 0.9) for h in heights]
        assert len(t90s) >= 3
        assert all(t is not None for t in t90s)
        assert float(np.median(t90s)) > 0
