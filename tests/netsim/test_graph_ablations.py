"""Ablations D5 (peer count) and D6 (churn) on the graph engine.

Both run a 250-node :meth:`GraphSpec.power_law` network with no
attacker at 20 steps per block for 2,000 steps, through the engine's
public API only.

- D5: §V-D notes that raising the peer count, a "permissible client
  modification", helps "the spread of malicious blocks".  Sweeping the
  out-degree (``base_degree`` with no heavy tail) must speed up block
  spread: the mean steps a new block takes to reach 95% of the nodes
  falls as peers are added (measured 7.06 / 6.00 / 5.49 / 5.26 at
  k = 2 / 4 / 8 / 16), and the mean synced fraction rises (0.838 /
  0.858 / 0.868 / 0.872).
- D6: churning and unreachable peers (Wang–Pustogarov) fail their
  contacts.  Raising the per-communication failure rate must
  manufacture the temporal attacker's victims: the mean fraction of
  nodes behind the tip rises with it (measured 0.122 / 0.161 / 0.249 /
  0.614 at rates 0 / 0.3 / 0.6 / 0.9).
"""

import numpy as np
import pytest

from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec

NUM_NODES = 250
STEPS = 2000
STEPS_PER_BLOCK = 20
PEER_COUNTS = (2, 4, 8, 16)
FAILURE_RATES = (0.0, 0.3, 0.6, 0.9)


def height_history(base_degree: int = 8, failure_rate: float = 0.10) -> np.ndarray:
    """Per-step heights (steps x nodes) of one attacker-free run."""
    spec = GraphSpec.power_law(
        NUM_NODES, base_degree=base_degree, max_extra_degree=0, seed=0
    )
    sim = GraphSimulatorVec(
        GraphConfig(
            spec=spec,
            failure_rate=failure_rate,
            steps_per_block=STEPS_PER_BLOCK,
            attacker_share=0.0,
        )
    )
    history = np.empty((STEPS, NUM_NODES), dtype=np.int64)
    for step in range(STEPS):
        sim.step()
        history[step] = sim.heights
    return history


def synced_fraction(history: np.ndarray) -> float:
    """Mean fraction of nodes at the global tip height."""
    return float((history == history.max(axis=1, keepdims=True)).mean())


def steps_to_95pct(history: np.ndarray) -> float:
    """Mean steps from a height's first appearance to 95% coverage."""
    tips = history.max(axis=1)
    delays = []
    # The last height may not have spread yet; every earlier one has.
    for height in range(1, int(tips[-1])):
        born = int(np.argmax(tips >= height))
        covered = int(np.argmax((history >= height).mean(axis=1) >= 0.95))
        delays.append(covered - born)
    return float(np.mean(delays))


@pytest.fixture(scope="module")
def peer_sweep():
    return {k: height_history(base_degree=k) for k in PEER_COUNTS}


class TestPeerCountAblation:
    def test_more_peers_spread_blocks_faster(self, peer_sweep):
        spread = [steps_to_95pct(peer_sweep[k]) for k in PEER_COUNTS]
        assert all(a > b for a, b in zip(spread, spread[1:])), spread
        # Bitcoin's default 8 peers beats a 2-peer client by >= 20%.
        assert spread[2] <= 0.8 * spread[0], spread

    def test_more_peers_keep_more_nodes_synced(self, peer_sweep):
        synced = [synced_fraction(peer_sweep[k]) for k in PEER_COUNTS]
        assert all(a <= b for a, b in zip(synced, synced[1:])), synced
        assert synced[2] > synced[0], synced


class TestChurnAblation:
    def test_failures_manufacture_laggards(self):
        behind = [
            1.0 - synced_fraction(height_history(failure_rate=rate))
            for rate in FAILURE_RATES
        ]
        assert all(a < b for a, b in zip(behind, behind[1:])), behind
        assert behind[-1] > 3 * behind[0], behind
