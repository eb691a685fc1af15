"""Stream position of the scalar grid engine's neighbour pick.

:meth:`GridSimulator._communicate` draws each node's neighbour with
``getrandbits(4)``, redrawn while the value is 8 or more: the calls
``randrange(8)`` makes through CPython's
``Random._randbelow_with_getrandbits``.  Here a simulator steps next to
a reference copy whose ``_communicate`` still calls ``randrange(8)``;
after every step the two must hold the same ``"grid"`` stream state,
the same labels and the same heights.  Any other draw (``getrandbits(3)``,
say, which never redraws) moves the stream within a step.
"""

from __future__ import annotations

import pytest

from repro.netsim.grid import GridConfig, GridSimulator

STEPS = 150


class RandrangeGridSimulator(GridSimulator):
    """The engine with the neighbour pick drawn by ``randrange(8)``."""

    def _communicate(self) -> None:
        failure = self.config.failure_rate
        rng_random = self._rng.random
        rng_randrange = self._rng.randrange
        neighbors = self._neighbors
        heights = self._heights
        labels = self._labels
        attacker_idx = self._attacker_idx if self.attacker_fork is not None else -1
        for idx in range(self.config.num_nodes):
            if failure and rng_random() < failure:
                continue
            other = neighbors[idx][rng_randrange(8)]
            height_a = heights[idx]
            height_b = heights[other]
            if height_a == height_b:
                continue
            winner, loser = (idx, other) if height_a > height_b else (other, idx)
            if loser == attacker_idx:
                continue
            self._set_cell(loser, labels[winner], heights[winner])


@pytest.mark.parametrize("size", [2, 15])
@pytest.mark.parametrize("failure_rate", [0.0, 0.1])
@pytest.mark.parametrize("attacker_share", [0.3, 0.0], ids=["attacker", "no-attacker"])
def test_stream_state_matches_randrange_after_every_step(
    size, failure_rate, attacker_share
):
    config = GridConfig(
        size=size,
        failure_rate=failure_rate,
        steps_per_block=5,
        attacker_share=attacker_share,
        attacker_cell=(size // 2, size // 2),
        seed=11,
    )
    sim = GridSimulator(config)
    reference = RandrangeGridSimulator(config)
    for step in range(STEPS):
        sim.step()
        reference.step()
        assert sim._rng.getstate() == reference._rng.getstate(), step
        assert sim.labels == reference.labels, step
        assert sim.heights == reference.heights, step
    # Blocks were mined and spread, so the picks decided who adopted what.
    assert max(max(row) for row in sim.heights) > 0
    if attacker_share:
        assert sim.attacker_fork is not None
