"""Synthetic data generation calibrated to the paper's measurements.

The paper's raw dataset (80 GB of Bitnodes crawls, Feb–Apr 2018) is not
publicly archived, so this package regenerates statistically equivalent
data: every marginal the paper reports (Tables I, II, IV, V, VIII;
Figures 3, 4, 6, 8) is either pinned exactly or matched in shape.  See
DESIGN.md §2 for the substitution argument.

- :mod:`repro.datagen.profiles` — every constant the paper publishes,
  as named structures (single source of truth for calibration);
- :mod:`repro.datagen.population` — node-population generator
  producing the 2018-02-28 :class:`~repro.crawler.snapshot.NetworkSnapshot`;
- :mod:`repro.datagen.consensus` — the lag-dynamics generator behind
  Figures 6/8 and Tables V/VII;
- :mod:`repro.datagen.pools` — the Table IV mining-pool dataset;
- :mod:`repro.datagen.versions` — the Table VIII software census;
- :mod:`repro.datagen.nvd` — offline records of the CVEs cited in §V-D.
"""

from .consensus import ConsensusDynamicsGenerator, ConsensusModelParams
from .nvd import CVE_RECORDS, CveRecord, cves_affecting
from .pools import MINING_POOLS, MiningPoolRecord, pool_asn_shares, pool_org_shares
from .population import PopulationGenerator
from .versions import SOFTWARE_VERSIONS, VersionRecord, version_distribution

__all__ = [
    "ConsensusDynamicsGenerator",
    "ConsensusModelParams",
    "CVE_RECORDS",
    "CveRecord",
    "cves_affecting",
    "MINING_POOLS",
    "MiningPoolRecord",
    "pool_asn_shares",
    "pool_org_shares",
    "PopulationGenerator",
    "SOFTWARE_VERSIONS",
    "VersionRecord",
    "version_distribution",
]
