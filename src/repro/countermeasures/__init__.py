"""Countermeasures (paper §VI).

- :mod:`repro.countermeasures.blockaware` — *BlockAware*, the paper's
  proposed temporal defense: a node whose latest block is older than
  the 600 s expected block time is stale (a tip-age detector over a
  simulated height history);
- :mod:`repro.countermeasures.stratum` — spreading stratum servers
  across ASes to raise the spatial attack's cost;
- :mod:`repro.countermeasures.routing` — bogus-route purging and valid
  route promotion (after Zhang et al.).
"""

from .blockaware import BlockAware, tip_ages
from .routing import RouteGuard, detect_bogus_routes
from .stratum import StratumDistribution, distribution_cost

__all__ = [
    "BlockAware",
    "tip_ages",
    "RouteGuard",
    "detect_bogus_routes",
    "StratumDistribution",
    "distribution_cost",
]
