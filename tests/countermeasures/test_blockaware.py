"""BlockAware (§VI) as a tip-age detector, and its D4 threshold ablation.

D4 runs on the graph engine: a 200-node power-law network whose four
highest-index nodes are cut off by :meth:`GraphSpec.partitioned` (an
eclipse), checked every 3 steps from step 200 to step 6,000.  The
threshold sweeps 0.5, 1, 2 and 4 block intervals around the paper's
600 s.  Every cut-off node must be flagged.  On the healthy side block
arrivals are memoryless, so a tip outlives ``k`` intervals with
probability about e^(-k): the false-alert rate must track that curve
within :data:`TOLERANCE`.

Natural forks are off: one natural block mined at a cut-off node would
hand the honest tip to the cut side, and honest blocks are seeded at
the tip's holders, so the cut side would keep mining while the healthy
side went stale.
"""

import math

import numpy as np
import pytest

from repro.countermeasures.blockaware import BlockAware, tip_ages
from repro.errors import ConfigurationError
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec

NUM_NODES = 200
STEPS_PER_BLOCK = 20
HORIZON = 6000
CHECK_STEPS = np.arange(200, HORIZON + 1, 3)
THRESHOLDS = (0.5, 1.0, 2.0, 4.0)

#: Largest allowed |false-alert rate - e^(-k)|.  Measured at seed 0:
#: 0.588 / 0.356 / 0.138 / 0.030 against 0.607 / 0.368 / 0.135 / 0.018.
TOLERANCE = 0.03


@pytest.fixture(scope="module")
def eclipsed_run():
    """(per-step height history, mask of the cut-off nodes)."""
    victims = np.zeros(NUM_NODES, dtype=bool)
    victims[-4:] = True
    spec = GraphSpec.power_law(NUM_NODES, seed=6).partitioned(victims)
    sim = GraphSimulatorVec(
        GraphConfig(
            spec=spec,
            failure_rate=0.0,
            steps_per_block=STEPS_PER_BLOCK,
            attacker_share=0.0,
            natural_fork_rate=0.0,
        )
    )
    history = np.empty((HORIZON + 1, NUM_NODES), dtype=np.int64)
    history[0] = sim.heights
    for step in range(1, HORIZON + 1):
        sim.step()
        history[step] = sim.heights
    return history, victims


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BlockAware(steps_per_block=0)
        with pytest.raises(ConfigurationError):
            BlockAware(steps_per_block=STEPS_PER_BLOCK, threshold_blocks=0.0)

    def test_default_threshold_is_block_time(self):
        """§VI: the rule is t_c - t_l > 600, one block interval."""
        detector = BlockAware(steps_per_block=STEPS_PER_BLOCK)
        assert detector.threshold_blocks == 1.0


class TestStalenessDetection:
    def test_staleness_measures_tip_age(self):
        history = [[0, 0], [1, 0], [1, 0], [1, 2], [3, 2]]
        assert tip_ages(history).tolist() == [[0, 0], [0, 1], [1, 2], [2, 0], [0, 1]]

    def test_alert_only_beyond_the_threshold(self):
        detector = BlockAware(steps_per_block=2, threshold_blocks=1.0)
        history = [[0], [0], [0], [0]]
        assert detector.alerts(history)[:, 0].tolist() == [False, False, False, True]

    def test_eclipsed_node_alerts(self, eclipsed_run):
        history, victims = eclipsed_run
        alerts = BlockAware(STEPS_PER_BLOCK).alerts(history)[CHECK_STEPS]
        assert alerts[-1, victims].all()
        assert (tip_ages(history)[-1, victims] > STEPS_PER_BLOCK).all()

    def test_detection_rate(self, eclipsed_run):
        """D4: every cut-off node is flagged at every threshold."""
        history, victims = eclipsed_run
        for threshold in THRESHOLDS:
            detector = BlockAware(STEPS_PER_BLOCK, threshold_blocks=threshold)
            alerts = detector.alerts(history)[CHECK_STEPS]
            assert alerts[:, victims].any(axis=0).all(), threshold

    def test_healthy_network_low_alert_rate(self, eclipsed_run):
        """D4: block intervals are exponential, so healthy nodes' tips
        outlive k intervals with probability about e^(-k)."""
        history, victims = eclipsed_run
        for threshold in THRESHOLDS:
            detector = BlockAware(STEPS_PER_BLOCK, threshold_blocks=threshold)
            rate = detector.alerts(history)[CHECK_STEPS][:, ~victims].mean()
            assert rate == pytest.approx(math.exp(-threshold), abs=TOLERANCE), threshold
