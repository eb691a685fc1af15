"""Spatio-temporal partitioning: hijack the synced, mislead the lagging.

§V-C's combined attack: up-to-date nodes reject counterfeit blocks, so
they are attacked spatially (BGP hijack of their hosting ASes), while
lagging nodes are attacked temporally (counterfeit feeding).  The
attack "is adjustable to the capabilities of an attacker": a pure AS
picks only the spatial half, a pure pool only the temporal half, and a
cloud provider with both capabilities (the paper's case study) waits
for a moment when synced nodes are few, then launches both.
:class:`SpatioTemporalPlan` picks that moment and the ASes to hijack
from a recorded lag series (the Figure 8 / Table VII workflow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..analysis.synced import synced_as_table
from ..crawler.timeseries import ConsensusTimeSeries
from ..errors import AttackError
from ..topology.topology import Topology

__all__ = ["SpatioTemporalPlan"]


@dataclass(frozen=True)
class SpatioTemporalPlan:
    """Where and when to strike.

    Attributes:
        strike_time: Sample time with the fewest synced nodes (the
            paper's trigger: synced count dropping toward ~3,000).
        synced_count: Synced nodes at that moment.
        lagging_count: Nodes 1+ behind at that moment.
        target_asns: ASes hosting the most synced nodes (Table VII's
            top-5) — the spatial half's hijack list.
        spatial_coverage: Fraction of synced nodes inside those ASes.
    """

    strike_time: float
    synced_count: int
    lagging_count: int
    target_asns: Tuple[int, ...]
    spatial_coverage: float

    @classmethod
    def from_series(
        cls,
        series: ConsensusTimeSeries,
        topology: Optional[Topology] = None,
        num_ases: int = 5,
    ) -> "SpatioTemporalPlan":
        """Plan from a recorded day of lag data (Figure 8 workflow)."""
        if series.node_asns is None:
            raise AttackError("series lacks per-node ASN mapping")
        synced_series = (series.lags == 0).sum(axis=1)
        strike_index = int(np.argmin(synced_series))
        rows = synced_as_table(series, topology, k=num_ases)
        coverage = sum(row.percentage for row in rows) / 100.0
        lagging = int(
            ((series.lags[strike_index] >= 1)).sum()
        )
        return cls(
            strike_time=float(series.times[strike_index]),
            synced_count=int(synced_series[strike_index]),
            lagging_count=lagging,
            target_asns=tuple(row.asn for row in rows),
            spatial_coverage=coverage,
        )
