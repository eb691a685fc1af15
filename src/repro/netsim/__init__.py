"""Block-propagation simulators: the paper's grid and its graph engine.

- :mod:`repro.netsim.grid` — the paper's grid simulator (Figure 7) and
  the shared mining/fork mechanics of both engines;
- :mod:`repro.netsim.graph` — the sparse CSR engine for arbitrary
  topologies (AS-level graphs, synthetic power-law networks), with
  BGP-hijack partitions and unreachable peers;
- :mod:`repro.netsim.latency` — the calibrated empirical
  propagation-delay distribution the graph engine samples per edge;
- :mod:`repro.netsim.timeline` — step-boundary changes of attacker
  share, failure rate and partition.
"""

from .graph import (
    GraphConfig,
    GraphSimulatorVec,
    GraphSnapshot,
    GraphSpec,
    graph_config_from_grid,
    hijack_partition_mask,
)
from .grid import (
    ENGINES,
    GridConfig,
    GridSimulator,
    GridSnapshot,
    VEC_SIZE_THRESHOLD,
    make_simulator,
    span_ratio_delay,
)
from .latency import (
    BITCOIN_PROPAGATION_2019,
    DELAY_MODELS,
    EmpiricalLatency,
    quantize_ticks,
)
from .timeline import Timeline, TimelineEvent

__all__ = [
    "ENGINES",
    "GraphConfig",
    "GraphSimulatorVec",
    "GraphSnapshot",
    "GraphSpec",
    "graph_config_from_grid",
    "hijack_partition_mask",
    "GridSimulator",
    "GridConfig",
    "GridSnapshot",
    "VEC_SIZE_THRESHOLD",
    "make_simulator",
    "span_ratio_delay",
    "BITCOIN_PROPAGATION_2019",
    "DELAY_MODELS",
    "EmpiricalLatency",
    "quantize_ticks",
    "Timeline",
    "TimelineEvent",
]
