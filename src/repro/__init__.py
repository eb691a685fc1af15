"""repro — reproduction of "Partitioning Attacks on Bitcoin: Colliding
Space, Time, and Logic" (Saad, Cook, Nguyen, Thai, Mohaisen; ICDCS 2019).

The library is organized by substrate:

- :mod:`repro.topology` — Internet topology: organizations, ASes, BGP
  prefixes, routing and hijacks, calibrated to the paper's 2018
  measurements;
- :mod:`repro.netsim` — the paper's grid simulator (Figure 7) and the
  sparse graph engine for AS-level and power-law networks;
- :mod:`repro.crawler` — the Bitnodes measurement schema (snapshots,
  lag series);
- :mod:`repro.datagen` — synthetic data calibrated to every published
  statistic;
- :mod:`repro.analysis` — the computations behind every table/figure;
- :mod:`repro.attacks` — spatial, temporal, spatio-temporal, and
  logical partitioning attacks;
- :mod:`repro.countermeasures` — BlockAware staleness detection,
  stratum distribution, route purging;
- :mod:`repro.scenarios` — declarative scenario specs for sweeps;
- :mod:`repro.experiments` — one regenerator per paper artifact.

Quickstart::

    from repro import build_paper_topology, PopulationGenerator
    topo = build_paper_topology(seed=7)
    snapshot = PopulationGenerator(topo, seed=7).generate()
    print(snapshot.summary())
"""

from .attacks import (
    Adversary,
    AdversaryType,
    AdversaryView,
    AttackOutcome,
    AttackResult,
    LogicalAttack,
    NationStateBlock,
    SpatialAttack,
    StratumIsolation,
    TemporalAttackPlan,
)
from .countermeasures import BlockAware, RouteGuard, StratumDistribution
from .crawler import ConsensusTimeSeries, NetworkSnapshot, NodeRecord
from .datagen import (
    ConsensusDynamicsGenerator,
    ConsensusModelParams,
    PopulationGenerator,
)
from .netsim import GridConfig, GridSimulator, span_ratio_delay
from .rng import RngStreams
from .scenarios import ScenarioSpec
from .topology import Topology, build_paper_topology
from .types import BITCOIN_BLOCK_INTERVAL, AddressType, LagBand

__version__ = "1.0.0"

__all__ = [
    "Adversary",
    "AdversaryType",
    "AdversaryView",
    "AttackOutcome",
    "AttackResult",
    "LogicalAttack",
    "NationStateBlock",
    "SpatialAttack",
    "StratumIsolation",
    "TemporalAttackPlan",
    "BlockAware",
    "RouteGuard",
    "StratumDistribution",
    "ConsensusTimeSeries",
    "NetworkSnapshot",
    "NodeRecord",
    "ConsensusDynamicsGenerator",
    "ConsensusModelParams",
    "PopulationGenerator",
    "GridConfig",
    "GridSimulator",
    "span_ratio_delay",
    "RngStreams",
    "ScenarioSpec",
    "Topology",
    "build_paper_topology",
    "BITCOIN_BLOCK_INTERVAL",
    "AddressType",
    "LagBand",
    "__version__",
]
