"""Temporal partitioning: choosing the lagging nodes to feed (§V-B).

The Figure 5 attack picks victims 1-5 blocks behind the tip (§III),
connects to them and feeds them a counterfeit chain.
:class:`TemporalAttackPlan` is its target-selection stage: the Table V
optimization finds how many nodes stay vulnerable through a timing
window, and the Table VI bound prices connecting to all of them.  The
feeding itself runs on the grid and graph engines
(:mod:`repro.netsim.grid`, Figure 7), where the attacker's hash share
extends counterfeit fork B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.timing import min_isolation_time
from ..analysis.vulnerable import max_vulnerable_nodes
from ..crawler.timeseries import ConsensusTimeSeries
from ..errors import AttackError

__all__ = ["TemporalAttackPlan"]


@dataclass(frozen=True)
class TemporalAttackPlan:
    """Output of the target-selection stage.

    Attributes:
        victim_count: Nodes the attacker will try to isolate (m).
        window_minutes: Timing constraint T of the Table V query.
        min_time_seconds: Table VI bound — minimum seconds to connect
            to all victims with success probability >= ``probability``.
        rate: Assumed exponential connection rate λ.
        probability: Target success probability (paper uses 0.8).
        feasible: Whether the bound fits inside the observed window.
    """

    victim_count: int
    window_minutes: int
    min_time_seconds: int
    rate: float
    probability: float

    @property
    def feasible(self) -> bool:
        return self.min_time_seconds <= self.window_minutes * 60

    @classmethod
    def from_series(
        cls,
        series: ConsensusTimeSeries,
        window_minutes: int = 10,
        min_lag: int = 1,
        rate: float = 0.8,
        probability: float = 0.8,
        victim_cap: Optional[int] = None,
    ) -> "TemporalAttackPlan":
        """Plan from a recorded lag series (the §V-B optimization).

        Finds the maximum sustained-vulnerable population for the
        window (Table V), optionally caps it, and prices the isolation
        time with the Table VI bound.
        """
        windows = max_vulnerable_nodes(series, min_lag, window_minutes)
        m = windows.max_nodes
        if victim_cap is not None:
            m = min(m, victim_cap)
        if m == 0:
            raise AttackError("no vulnerable nodes in any window")
        return cls(
            victim_count=m,
            window_minutes=window_minutes,
            min_time_seconds=min_isolation_time(m, rate, probability),
            rate=rate,
            probability=probability,
        )
