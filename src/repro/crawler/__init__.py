"""Measurement layer: the Bitnodes crawl schema and its products.

The paper's entire dataset came from a crawler built atop Bitnodes
(§IV-A): per-node records (address type, AS, organization, link speed,
latency/uptime/block indices, software version) sampled every 10
minutes network-wide and every minute for consensus-pruning studies.

- :mod:`repro.crawler.snapshot` — :class:`NodeRecord` and
  :class:`NetworkSnapshot`, the schema all analyses consume;
- :mod:`repro.crawler.indices` — the latency/uptime/block index
  computations Bitnodes derives from probe responses;
- :mod:`repro.crawler.io` — JSON / NPZ persistence of snapshots and
  series;
- :mod:`repro.crawler.timeseries` — snapshot series with the stacked
  lag-band views of Figure 6 and the per-AS joins of Figure 8.
"""

from .io import load_series, load_snapshot, save_series, save_snapshot
from .indices import block_index, latency_index, uptime_index
from .snapshot import NetworkSnapshot, NodeRecord
from .timeseries import ConsensusTimeSeries, SeriesPoint

__all__ = [
    "load_series",
    "load_snapshot",
    "save_series",
    "save_snapshot",
    "block_index",
    "latency_index",
    "uptime_index",
    "NetworkSnapshot",
    "NodeRecord",
    "ConsensusTimeSeries",
    "SeriesPoint",
]
