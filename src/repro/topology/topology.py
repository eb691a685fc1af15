"""The aggregate :class:`Topology`: orgs + ASes + prefixes + hosted nodes.

A :class:`Topology` is the spatial ground truth of one experiment: which
organizations own which ASes, which prefixes each AS announces, and
which Bitcoin node lives at which IP.  Analyses (centralization CDFs,
hijack-cost curves) and attacks (BGP hijacks, nation-state blocks) all
run against this object.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import TopologyError
from .asn import ASRegistry, AutonomousSystem, TOR_PSEUDO_ASN
from .bgp import RoutingTable
from .geo import CountryRegistry
from .org import Organization, OrganizationRegistry
from .prefix import Prefix, PrefixPool

__all__ = ["Topology"]


@dataclass
class Topology:
    """Spatial ground truth: organizations, ASes, prefixes, hosted nodes.

    Construction is incremental: create orgs and ASes through the
    registries, attach prefix pools, then host nodes.  Nodes are hosted
    through :meth:`host_node` (one node, one prefix) or
    :meth:`host_nodes_weighted` (a whole AS, spread over its prefixes);
    each records the node's AS, appends it to the AS's node list and
    places it in the pool in one step.
    """

    orgs: OrganizationRegistry = field(default_factory=OrganizationRegistry)
    ases: ASRegistry = field(default_factory=ASRegistry)
    countries: CountryRegistry = field(default_factory=CountryRegistry)
    pools: Dict[int, PrefixPool] = field(default_factory=dict)
    _node_asn: Dict[int, int] = field(default_factory=dict, repr=False)
    #: Node ids per ASN in hosting order; derived from ``_node_asn``.
    _as_nodes: Dict[int, List[int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_organization(
        self, org_id: str, name: str, country: str = "??"
    ) -> Organization:
        """Register an organization (and ensure its country exists)."""
        self.countries.ensure(country)
        return self.orgs.create(org_id, name, country)

    def add_as(
        self,
        asn: int,
        name: str,
        org_id: str,
        country: str = "??",
        num_prefixes: int = 0,
        prefix_len: int = 24,
    ) -> AutonomousSystem:
        """Register an AS under an existing org, optionally with prefixes."""
        if org_id not in self.orgs:
            raise TopologyError("organization must be registered first", org_id=org_id)
        self.countries.ensure(country)
        asys = self.ases.create(asn, name, org_id, country)
        self.orgs.attach_asn(org_id, asn)
        if num_prefixes > 0:
            from .prefix import allocate_prefixes  # local import avoids cycle

            pool = PrefixPool(asn=asn)
            for prefix in allocate_prefixes(
                asn, num_prefixes, as_index=len(self.ases), prefix_len=prefix_len
            ):
                pool.add_prefix(prefix)
            self.pools[asn] = pool
        return asys

    def pool(self, asn: int) -> PrefixPool:
        try:
            return self.pools[asn]
        except KeyError:
            raise TopologyError("AS has no prefix pool", asn=asn) from None

    def host_node(
        self,
        node_id: int,
        asn: int,
        prefix: Optional[Prefix] = None,
    ) -> Optional[ipaddress.IPv4Address]:
        """Host ``node_id`` in AS ``asn``.

        If the AS has a prefix pool, the node is placed into ``prefix``
        (or the pool's first prefix) and its IP is returned.  Tor nodes
        (hosted in the pseudo-AS) have no IP and return ``None``.
        """
        self._record_hosting(asn, (node_id,))
        pool = self.pools.get(asn)
        if pool is None or asn == TOR_PSEUDO_ASN:
            return None
        target = prefix if prefix is not None else pool.prefixes[0]
        return pool.assign_node(node_id, target)

    def host_nodes_weighted(
        self,
        asn: int,
        node_ids: Sequence[int],
        weights: Sequence[float],
        rng: random.Random,
    ) -> None:
        """Host every id of ``node_ids`` in AS ``asn``, in order.

        The nodes are spread over the AS's prefixes by
        :meth:`PrefixPool.assign_nodes_weighted` with ``weights`` (one
        per prefix) and draws from ``rng``.
        """
        self._record_hosting(asn, node_ids)
        self.pool(asn).assign_nodes_weighted(node_ids, weights, rng)

    def _record_hosting(self, asn: int, node_ids: Sequence[int]) -> None:
        if asn not in self.ases:
            raise TopologyError("unknown ASN", asn=asn)
        node_asn = self._node_asn
        members = self._as_nodes.setdefault(asn, [])
        for node_id in node_ids:
            if node_id in node_asn:
                raise TopologyError("node already hosted", node_id=node_id)
            node_asn[node_id] = asn
            members.append(node_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._node_asn)

    def asn_of(self, node_id: int) -> int:
        try:
            return self._node_asn[node_id]
        except KeyError:
            raise TopologyError("node not hosted", node_id=node_id) from None

    def org_of(self, node_id: int) -> Organization:
        asys = self.ases.get(self.asn_of(node_id))
        return self.orgs.get(asys.org_id)

    def ip_of(self, node_id: int) -> ipaddress.IPv4Address:
        asn = self.asn_of(node_id)
        return self.pool(asn).node_ip(node_id)

    def nodes_in_as(self, asn: int) -> List[int]:
        """Node ids hosted in ``asn``, in hosting order."""
        return list(self._as_nodes.get(asn, ()))

    def nodes_per_as(self) -> Dict[int, int]:
        """Node count per ASN — the raw series behind Table II/Figure 3."""
        counts: Dict[int, int] = {}
        for asn in self._node_asn.values():
            counts[asn] = counts.get(asn, 0) + 1
        return counts

    def nodes_per_org(self) -> Dict[str, int]:
        """Node count per organization id (aggregating multi-AS orgs)."""
        counts: Dict[str, int] = {}
        for asn, count in self.nodes_per_as().items():
            org_id = self.ases.get(asn).org_id
            counts[org_id] = counts.get(org_id, 0) + count
        return counts

    def nodes_per_country(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for asn, count in self.nodes_per_as().items():
            country = self.ases.get(asn).country
            counts[country] = counts.get(country, 0) + count
        return counts

    def all_node_ids(self) -> List[int]:
        return list(self._node_asn)

    def node_ips_in_as(self, asn: int) -> List[ipaddress.IPv4Address]:
        pool = self.pools.get(asn)
        if pool is None:
            return []
        return [pool.node_ip(nid) for nid in self._as_nodes.get(asn, ())]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_routing_table(self) -> RoutingTable:
        """Announce every pool prefix from its legitimate origin."""
        table = RoutingTable()
        for pool in self.pools.values():
            for prefix in pool.prefixes:
                # Legitimate paths are modelled as two hops (transit +
                # origin) so a hijacker's direct one-hop forged path wins
                # equal-specificity tie-breaks, as in real sub-prefix
                # hijacks where the bogus route looks "closer".
                table.announce_prefix(prefix, as_path=(0, prefix.origin_asn))
        return table

    def summary(self) -> Dict[str, int]:
        """Headline sizes for logging and sanity tests."""
        return {
            "organizations": len(self.orgs),
            "ases": len(self.ases),
            "countries": len(self.countries),
            "prefixes": sum(pool.num_prefixes for pool in self.pools.values()),
            "nodes": self.num_nodes,
        }
