"""The four partitioning attack families (paper §V).

- :mod:`repro.attacks.adversary` — the §III threat model: adversary
  types, capabilities, and the "adversarial view" of the network;
- :mod:`repro.attacks.spatial` — BGP prefix hijacks against ASes and
  organizations, stratum-server isolation, nation-state blocks (§V-A);
- :mod:`repro.attacks.temporal` — the Table V/VI target selection of
  counterfeit-chain feeding against lagging nodes (§V-B);
- :mod:`repro.attacks.spatiotemporal` — planning the combined attack
  that hijacks synced ASes and misleads lagging nodes (§V-C);
- :mod:`repro.attacks.logical` — software-diversity exploitation:
  CVE-based partitions and malicious-client adoption (§V-D);
- :mod:`repro.attacks.results` — the common result schema.

The attacks' propagation effects run on the grid and graph engines
(:mod:`repro.netsim`): a hijack becomes a
:meth:`~repro.netsim.graph.GraphSpec.partitioned` cut through
:func:`~repro.netsim.graph.hijack_partition_mask`, and counterfeit
feeding is the engines' attacker fork B.
"""

from .adversary import Adversary, AdversaryType, AdversaryView
from .logical import LogicalAttack, LogicalAttackReport
from .results import AttackOutcome, AttackResult
from .spatial import NationStateBlock, SpatialAttack, StratumIsolation
from .spatiotemporal import SpatioTemporalPlan
from .temporal import TemporalAttackPlan

__all__ = [
    "Adversary",
    "AdversaryType",
    "AdversaryView",
    "LogicalAttack",
    "LogicalAttackReport",
    "AttackOutcome",
    "AttackResult",
    "NationStateBlock",
    "SpatialAttack",
    "StratumIsolation",
    "SpatioTemporalPlan",
    "TemporalAttackPlan",
]
