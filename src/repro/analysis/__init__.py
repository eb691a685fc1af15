"""Analyses reproducing the paper's tables and figures.

Each module regenerates one family of artifacts from the substrate
data (snapshots, time series, topologies):

- :mod:`repro.analysis.characteristics` — Table I;
- :mod:`repro.analysis.centralization` — Table II/III and Figure 3;
- :mod:`repro.analysis.hijack` — Figure 4 prefix-hijack cost curves;
- :mod:`repro.analysis.poolmap` — Table IV mining-pool mapping;
- :mod:`repro.analysis.consensus` — Figure 6 statistics;
- :mod:`repro.analysis.vulnerable` — Table V sustained-lag optimizer;
- :mod:`repro.analysis.timing` — Table VI isolation-time bound;
- :mod:`repro.analysis.synced` — Table VII / Figure 8 per-AS joins.
"""

from .centralization import (
    CentralizationChange,
    centralization_change,
    coverage_count,
    cdf_points,
    top_entities,
)
from .characteristics import type_characteristics_table
from .economics import AttackEconomics, EconomicModel
from .consensus import behind_fraction_after, consensus_pruning_stats
from .hijack import HijackCurve, hijack_curve, prefixes_for_fraction
from .poolmap import PoolMapping, map_pools
from .synced import synced_as_table, synced_band_lines
from .timing import isolation_bound, min_isolation_time, timing_table
from .vulnerable import VulnerableWindows, max_vulnerable_nodes, vulnerable_table

__all__ = [
    "CentralizationChange",
    "centralization_change",
    "coverage_count",
    "cdf_points",
    "top_entities",
    "type_characteristics_table",
    "AttackEconomics",
    "EconomicModel",
    "behind_fraction_after",
    "consensus_pruning_stats",
    "HijackCurve",
    "hijack_curve",
    "prefixes_for_fraction",
    "PoolMapping",
    "map_pools",
    "synced_as_table",
    "synced_band_lines",
    "isolation_bound",
    "min_isolation_time",
    "timing_table",
    "VulnerableWindows",
    "max_vulnerable_nodes",
    "vulnerable_table",
]
