"""Logical partitioning: exploiting client software diversity (§V-D).

The paper's logical attack has two tracks, both implemented here:

1. **Vulnerability exploitation** — join the Table VIII version census
   against the NVD records: a CVE that crashes a version range (e.g.
   CVE-2018-17144's duplicate-input DoS) partitions every node running
   it out of the network in one shot.
2. **Malicious client adoption** — a modified client gains adoption by
   offering benefits (the Falcon example); once a fraction of nodes
   runs it, the attacker can flip them into relays for counterfeit
   blocks, isolate their peers, or DoS neighbours.  The attack's reach
   is the adopted fraction plus the peers those nodes can mislead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..crawler.snapshot import NetworkSnapshot
from ..datagen.nvd import CVE_RECORDS, CveRecord, cves_affecting
from ..errors import AttackError
from .results import AttackOutcome, AttackResult

__all__ = ["LogicalAttackReport", "LogicalAttack"]


@dataclass(frozen=True)
class LogicalAttackReport:
    """Exposure assessment of the network's software census.

    Attributes:
        total_nodes: Census size.
        distinct_versions: Count of distinct client variants (288 in
            the paper).
        version_shares: Version -> node share.
        cve_exposure: CVE id -> fraction of nodes affected.
        dominant_version_share: Share of the most common version
            (36.28% in the paper — the "reassuring" ceiling §VI notes).
    """

    total_nodes: int
    distinct_versions: int
    version_shares: Dict[str, float]
    cve_exposure: Dict[str, float]
    dominant_version_share: float


@dataclass
class LogicalAttack:
    """Partition planning against the software census.

    Parameters:
        snapshot: The crawled network (provides the version census).
        cves: Vulnerability records to join against (defaults to the
            paper's pinned NVD set).
    """

    snapshot: NetworkSnapshot
    cves: Tuple[CveRecord, ...] = CVE_RECORDS

    def assess(self) -> LogicalAttackReport:
        """Compute the census exposure report."""
        counts = self.snapshot.nodes_per_version()
        total = sum(counts.values())
        shares = {version: count / total for version, count in counts.items()}
        exposure: Dict[str, float] = {}
        for cve in self.cves:
            affected = sum(
                count for version, count in counts.items() if cve.affects(version)
            )
            exposure[cve.cve_id] = affected / total
        dominant = max(shares.values()) if shares else 0.0
        return LogicalAttackReport(
            total_nodes=total,
            distinct_versions=len(counts),
            version_shares=shares,
            cve_exposure=exposure,
            dominant_version_share=dominant,
        )

    def crash_victims(self, cve_id: str) -> List[int]:
        """Nodes knocked out by exploiting ``cve_id`` network-wide."""
        cve = next((c for c in self.cves if c.cve_id == cve_id), None)
        if cve is None:
            raise AttackError("unknown CVE", cve_id=cve_id)
        return [
            record.node_id
            for record in self.snapshot.records
            if record.up and cve.affects(record.software_version)
        ]

    def execute_crash(self, cve_id: str) -> AttackResult:
        """Exploit ``cve_id``: every affected node goes offline."""
        victims = self.crash_victims(cve_id)
        total_up = len(self.snapshot.up_nodes())
        fraction = len(victims) / total_up if total_up else 0.0
        return AttackResult(
            attack="logical_crash",
            outcome=(
                AttackOutcome.SUCCESS
                if fraction >= 0.5
                else AttackOutcome.PARTIAL
                if victims
                else AttackOutcome.FAILED
            ),
            victims=tuple(victims),
            effort=1.0,  # one exploit, network-wide
            metrics={"crashed_fraction": fraction, "cve_count": 1.0},
        )

    # ------------------------------------------------------------------
    def adoption_reach(
        self,
        adopted_fraction: float,
        peers_per_node: int = 8,
    ) -> Dict[str, float]:
        """Reach of a malicious client at ``adopted_fraction`` adoption.

        Returns the direct reach (adopters) and the relay reach — the
        expected fraction of honest nodes with at least one adopter
        peer, ``1 - (1 - a)^p`` under random peering — the population
        the modified clients can feed false information (§V-D's
        "help the spread of malicious blocks").
        """
        if not 0.0 <= adopted_fraction <= 1.0:
            raise AttackError("adoption fraction in [0,1]")
        if peers_per_node < 1:
            raise AttackError("peers_per_node must be >= 1")
        relay_reach = 1.0 - (1.0 - adopted_fraction) ** peers_per_node
        return {
            "direct": adopted_fraction,
            "relay": relay_reach,
            "combined": adopted_fraction
            + (1.0 - adopted_fraction) * relay_reach,
        }
