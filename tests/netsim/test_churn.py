"""Churn on the graph engine: failure-rate and partition timelines.

Wang–Pustogarov's churning peers miss their contacts; the engine
models them with a per-communication failure rate, and peers that drop
off and return with a partition timeline.  Both change at tick
boundaries through :class:`Timeline` events.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.netsim.timeline import Timeline, TimelineEvent


def make_sim(num_nodes=60, seed=41, **kwargs):
    kwargs.setdefault("failure_rate", 0.0)
    kwargs.setdefault("steps_per_block", 20)
    kwargs.setdefault("attacker_share", 0.0)
    kwargs.setdefault("natural_fork_rate", 0.0)
    return GraphSimulatorVec(
        GraphConfig(spec=GraphSpec.power_law(num_nodes, seed=seed), **kwargs)
    )


def behind_fraction(sim, steps):
    """Mean fraction of nodes below the highest chain over ``steps``."""
    behind = []
    for _ in range(steps):
        sim.step()
        heights = np.asarray(sim.heights)
        behind.append(float((heights < heights.max()).mean()))
    return float(np.mean(behind))


class TestChurnConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TimelineEvent(step=10, failure_rate=1.0)
        with pytest.raises(ConfigurationError):
            TimelineEvent(step=10, failure_rate=-0.1)
        with pytest.raises(ConfigurationError):
            TimelineEvent(step=10, partition_fraction=1.5)
        with pytest.raises(ConfigurationError):
            TimelineEvent(step=10)  # changes nothing


class TestChurnProcess:
    def test_selects_configured_fraction(self):
        sim = make_sim()
        sim.attach_timeline(Timeline([TimelineEvent(step=0, partition_fraction=0.5)]))
        sim.run(400)
        # The lowest-index half is cut off (and holds the honest miners'
        # seeds); the other 30 nodes never see a block.
        heights = np.asarray(sim.heights)
        assert heights.max() >= 1
        assert (heights[30:] == 0).all()
        assert (heights[:30] >= 1).all()

    def test_transitions_happen(self):
        sim = make_sim()
        rates = {100: 0.5, 200: 0.9, 300: 0.2}
        sim.attach_timeline(
            Timeline(
                TimelineEvent(step=step, failure_rate=rate)
                for step, rate in rates.items()
            )
        )
        for step in range(1, 401):
            sim.step()
            expected = [rate for at, rate in rates.items() if at <= step]
            assert sim.config.failure_rate == (expected[-1] if expected else 0.0)
        assert sim.timeline_fired == sorted(rates)

    def test_returning_nodes_lag_then_catch_up(self):
        """Churn produces the paper's lagging-node population."""
        sim = make_sim(seed=44)
        sim.attach_timeline(
            Timeline(
                [
                    TimelineEvent(step=0, partition_fraction=0.5),
                    TimelineEvent(step=400, partition_fraction=0.0),
                ]
            )
        )
        sim.run(399)
        heights = np.asarray(sim.heights)
        tip = heights.max()
        assert (tip - heights[30:] >= 1).all()  # returned behind
        sim.run(40)
        heights = np.asarray(sim.heights)
        assert (heights.max() - heights <= 1).all()  # gossip caught up

    def test_stop(self):
        sim = make_sim(seed=43)
        sim.attach_timeline(
            Timeline(
                [
                    TimelineEvent(step=0, failure_rate=0.9),
                    TimelineEvent(step=1000, failure_rate=0.0),
                ]
            )
        )
        churning = behind_fraction(sim, 999)
        sim.step()
        assert sim.config.failure_rate == 0.0
        stopped = behind_fraction(sim, 1000)
        assert stopped < churning / 2

    def test_explicit_node_ids(self):
        """Unreachable peers are an explicit node set: they keep their
        outbound contacts and lose every inbound one."""
        spec = GraphSpec.power_law(60, seed=41)
        mask = np.zeros(60, dtype=bool)
        mask[[3, 4, 5]] = True
        cut = spec.unreachable(mask)
        assert not mask[cut.indices].any()
        for node in (3, 4, 5):
            row = spec.indices[spec.indptr[node] : spec.indptr[node + 1]]
            kept = cut.indices[cut.indptr[node] : cut.indptr[node + 1]]
            assert kept.tolist() == [p for p in row.tolist() if not mask[p]]
        assert cut.num_nodes == spec.num_nodes
