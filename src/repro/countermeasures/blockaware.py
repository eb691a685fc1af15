"""BlockAware: the paper's proposed temporal-attack defense (§VI).

    "a node compares the timestamp of its latest block t_l and the
    current time t_c. Since the block time in Bitcoin is fixed at 600
    seconds, a difference between the two values exceeding 600 seconds
    (t_c - t_l > 600) indicates a node has not received the latest
    block. In such a situation, the node can try to connect to other
    nodes, and query them for the latest block."

This module is the detection half of that scheme, a tip-age detector
over a per-step height history: one row per simulation step of a
:class:`~repro.netsim.graph.GraphSimulatorVec` (or grid) run's
``heights``.  A node's tip age is the number of steps since its height
last changed; the node is stale once that age exceeds the threshold,
counted in expected block intervals (the paper's 600 s is one).  Block
arrivals are memoryless, so a healthy node's tip outlives ``k``
intervals with probability about e^(-k), while a node cut off from the
network (eclipsed, hijacked, fed a slow counterfeit chain) stays stale
until it reconnects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = ["BlockAware", "tip_ages"]


def tip_ages(history) -> np.ndarray:
    """Steps since each node's height last changed, per step.

    ``history`` is a ``(steps, nodes)`` array of heights; row 0 counts
    as a change, so ages start at zero.
    """
    heights = np.asarray(history)
    steps = np.arange(heights.shape[0])[:, None]
    changed = np.ones(heights.shape, dtype=bool)
    changed[1:] = heights[1:] != heights[:-1]
    return steps - np.maximum.accumulate(np.where(changed, steps, 0), axis=0)


@dataclass(frozen=True)
class BlockAware:
    """The staleness rule ``t_c - t_l > threshold`` in simulation steps.

    Attributes:
        steps_per_block: Steps per expected block interval of the run.
        threshold_blocks: Threshold in block intervals (paper: 1).
    """

    steps_per_block: int
    threshold_blocks: float = 1.0

    def __post_init__(self) -> None:
        if self.steps_per_block < 1 or self.threshold_blocks <= 0:
            raise ConfigurationError(
                "steps_per_block >= 1 and a positive threshold required",
                steps_per_block=self.steps_per_block,
                threshold_blocks=self.threshold_blocks,
            )

    def alerts(self, history) -> np.ndarray:
        """Boolean ``(steps, nodes)`` array: True where a node is stale."""
        return tip_ages(history) > self.threshold_blocks * self.steps_per_block
