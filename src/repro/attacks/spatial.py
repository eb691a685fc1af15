"""Spatial partitioning: BGP hijacks, stratum isolation, nation blocks.

Implements §V-A's attack procedure end to end: the malicious AS forges
more-specific announcements for the victim AS's most populated prefixes
(greedy order from the Figure 4 analysis), installs them in the routing
table, and every captured node is eclipsed.  Variants cover the other
spatial adversaries the paper discusses: isolating mining pools by
hijacking their stratum servers (Table IV), and a nation-state ordering
its ASes to drop Bitcoin traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..analysis.hijack import hijack_curve, prefixes_for_fraction
from ..analysis.poolmap import PoolMapping, map_pools
from ..errors import AttackError
from ..topology.bgp import BgpHijack, RoutingTable
from ..topology.geo import NationStatePolicy
from ..topology.topology import Topology
from .results import AttackOutcome, AttackResult

__all__ = ["SpatialAttack", "StratumIsolation", "NationStateBlock"]


@dataclass
class SpatialAttack:
    """A BGP prefix hijack against one AS's Bitcoin nodes.

    Parameters:
        topology: Spatial ground truth.
        attacker_asn: The forging AS.
        target_asn: The victim AS.
        target_fraction: Node fraction the attacker wants captured;
            drives the greedy prefix selection (Figure 4 curve).
    """

    topology: Topology
    attacker_asn: int
    target_asn: int
    target_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.target_fraction <= 1.0:
            raise AttackError("target fraction in (0,1]", value=self.target_fraction)
        if self.target_asn not in self.topology.ases:
            raise AttackError("unknown target AS", asn=self.target_asn)
        if self.target_asn not in self.topology.pools:
            raise AttackError("target AS has no prefix pool", asn=self.target_asn)

    def plan(self):
        """The prefixes the greedy attacker will hijack."""
        pool = self.topology.pool(self.target_asn)
        return prefixes_for_fraction(pool, self.target_fraction)

    def execute(self, table: Optional[RoutingTable] = None) -> AttackResult:
        """Install the hijack into ``table`` and count the captured nodes.

        Returns an :class:`AttackResult` whose effort is the number of
        hijacked prefixes and whose metrics include the captured node
        fraction — the two axes of Figure 4.
        """
        table = table if table is not None else self.topology.build_routing_table()
        victim_prefixes = self.plan()
        hijack = BgpHijack(
            attacker_asn=self.attacker_asn, victim_prefixes=victim_prefixes
        )
        announcements = hijack.apply(table)

        pool = self.topology.pool(self.target_asn)
        victims: List[int] = []
        for node_id in self.topology.nodes_in_as(self.target_asn):
            ip = pool.node_ip(node_id)
            if table.origin_of(ip) == self.attacker_asn:
                victims.append(node_id)
        total = len(self.topology.nodes_in_as(self.target_asn))
        captured_fraction = len(victims) / total if total else 0.0

        outcome = (
            AttackOutcome.SUCCESS
            if captured_fraction >= self.target_fraction
            else AttackOutcome.PARTIAL
            if victims
            else AttackOutcome.FAILED
        )
        return AttackResult(
            attack="spatial",
            outcome=outcome,
            victims=tuple(victims),
            effort=float(len(victim_prefixes)),
            metrics={
                "captured_fraction": captured_fraction,
                "announcements": float(announcements),
                "target_as_nodes": float(total),
            },
        )

    def cost_curve(self):
        """The full Figure 4 curve for the target AS."""
        return hijack_curve(self.topology.pool(self.target_asn))


@dataclass
class StratumIsolation:
    """Isolating mining pools by hijacking their stratum ASes (§V-A).

    "If an attacker hijacks 3 ASes, he can isolate more than 60% of the
    Bitcoin hash power" — this attack picks the fewest stratum-hosting
    ASes reaching ``target_hash_share`` and marks every pool whose
    stratum lives there unreachable.
    """

    target_hash_share: float = 0.60
    mapping: PoolMapping = field(default_factory=map_pools)

    def __post_init__(self) -> None:
        if not 0.0 < self.target_hash_share <= 1.0:
            raise AttackError("target share in (0,1]")

    def plan(self) -> List[int]:
        """ASes to hijack, fewest-first."""
        return self.mapping.top_asns_for_share(self.target_hash_share)

    def execute(self) -> AttackResult:
        """The hash share cut off by hijacking the planned ASes."""
        asns = self.plan()
        isolated_share = sum(
            share for asn, share in self.mapping.asn_shares.items() if asn in asns
        )
        return AttackResult(
            attack="stratum_isolation",
            outcome=(
                AttackOutcome.SUCCESS
                if isolated_share >= self.target_hash_share
                else AttackOutcome.PARTIAL
            ),
            victims=(),
            effort=float(len(asns)),
            metrics={
                "isolated_hash_share": isolated_share,
                "hijacked_ases": float(len(asns)),
            },
        )


@dataclass
class NationStateBlock:
    """A nation-state severing Bitcoin traffic through its ASes (§III).

    The paper's example: China's jurisdiction carries ~60% of mining
    traffic; a ban partitions every node and stratum server hosted in
    its ASes.
    """

    topology: Topology
    country: str

    def execute(self) -> AttackResult:
        policy = NationStatePolicy.for_country(self.country, self.topology.ases)
        if not policy.blocked_asns:
            raise AttackError("country hosts no ASes", country=self.country)
        victims: List[int] = []
        for asn in policy.blocked_asns:
            victims.extend(self.topology.nodes_in_as(asn))
        node_fraction = policy.blocked_fraction(self.topology.nodes_per_as())
        mapping = map_pools()
        blocked_hash = sum(
            share
            for asn, share in mapping.asn_shares.items()
            if asn in policy.blocked_asns
        )
        return AttackResult(
            attack="nation_state_block",
            outcome=AttackOutcome.SUCCESS if victims else AttackOutcome.FAILED,
            victims=tuple(victims),
            effort=float(len(policy.blocked_asns)),
            metrics={
                "blocked_node_fraction": node_fraction,
                "blocked_hash_share": blocked_hash,
                "blocked_ases": float(len(policy.blocked_asns)),
            },
        )
