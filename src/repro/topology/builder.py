"""Generator of topologies calibrated to the paper's measurements.

The paper's 2018-02-28 snapshot pins down the spatial ground truth:

- 13,635 full nodes total, hosted by 1,660 ASes;
- the exact top-10 ASes and organizations of Table II;
- ~8 ASes covering 30% of nodes, ~24 covering 50% (Table III);
- per-AS prefix pools sized per Figure 4's legend (AS24940: 51
  prefixes, ..., AS16509: 2,969) with node-over-prefix concentration
  such that the published hijack-cost curves reproduce;
- multi-AS organizations (Amazon, OVH, DigitalOcean) whose ownership
  amplifies organization-level centralization.

:class:`PaperTopologyBuilder` constructs a :class:`Topology` satisfying
all of the above.  Every number that comes straight from the paper is
kept in a named constant so the calibration is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..rng import RngStreams
from .asn import TOR_PSEUDO_ASN
from .prefix import AddressPlan, PrefixPool
from .topology import Topology

__all__ = [
    "ASProfile",
    "PaperTopologyBuilder",
    "build_paper_topology",
    "PAPER_TOTAL_NODES",
    "PAPER_TOTAL_ASES",
    "PAPER_TOP_AS_PROFILES",
]

#: Total reachable full nodes in the 2018-02-28 snapshot (§IV-C).
PAPER_TOTAL_NODES = 13_635

#: ASes hosting at least one full node (§V-A: "1,660 (1.95%) ASes host
#: 100% Bitcoin nodes").
PAPER_TOTAL_ASES = 1_660


@dataclass(frozen=True)
class ASProfile:
    """Calibration profile of one AS.

    Attributes:
        asn: AS number (``TOR_PSEUDO_ASN`` for the aggregated Tor "AS").
        name: AS display name.
        org_id: Owning organization slug.
        org_name: Organization display name (Table II, right half).
        country: Jurisdiction code.
        nodes: Bitcoin full nodes hosted (Table II).
        prefixes: BGP prefixes announced (Figure 4 legend; 0 = derive
            a small pool from the node count).
        concentration: Zipf exponent for assigning nodes to prefixes.
            Higher = more nodes crammed into few prefixes = cheaper
            hijack (AS24940-like); lower = diffuse (AS16509-like).
    """

    asn: int
    name: str
    org_id: str
    org_name: str
    country: str
    nodes: int
    prefixes: int = 0
    concentration: float = 2.0


#: Table II, augmented with Figure 4 prefix counts, the secondary ASes
#: that reconcile the organization column (Amazon 756 = 609 + 147, OVH
#: 700 = 697 + 3, DigitalOcean 503 = 460 + 43), and AS58563 (Chinanet
#: Hubei) which Table IV needs for the F2Pool stratum mapping.
PAPER_TOP_AS_PROFILES: Tuple[ASProfile, ...] = (
    ASProfile(24940, "AS24940", "hetzner", "Hetzner Online GmbH", "DE", 1030, 51, 1.8),
    ASProfile(16276, "AS16276", "ovh", "OVH SAS", "FR", 697, 104, 1.6),
    ASProfile(37963, "AS37963", "alibaba-hz", "Hangzhou Alibaba", "CN", 640, 454, 1.6),
    ASProfile(16509, "AS16509", "amazon", "Amazon.com, Inc", "US", 609, 2969, 1.2),
    ASProfile(14061, "AS14061", "digitalocean", "DigitalOcean, LLC", "US", 460, 1430, 1.6),
    ASProfile(7922, "AS7922", "comcast", "Comcast Communication", "US", 414, 40, 2.0),
    ASProfile(4134, "AS4134", "jinrong", "No.31, Jin-rong Street", "CN", 394, 60, 2.0),
    ASProfile(TOR_PSEUDO_ASN, "TOR", "tor", "TOR", "??", 319, 0, 0.0),
    ASProfile(51167, "AS51167", "contabo", "Contabo GmbH", "DE", 288, 24, 2.0),
    ASProfile(45102, "AS45102", "alibaba-cn", "Alibaba (China)", "CN", 279, 48, 2.0),
    # Secondary ASes of multi-AS organizations (org totals from Table II).
    ASProfile(14618, "AS14618", "amazon", "Amazon.com, Inc", "US", 147, 120, 1.4),
    ASProfile(393406, "AS393406", "digitalocean", "DigitalOcean, LLC", "US", 43, 12, 2.0),
    ASProfile(35540, "AS35540", "ovh", "OVH SAS", "FR", 3, 2, 1.0),
    # Chinanet Hubei: hosts F2Pool's secondary stratum endpoint (Table IV).
    ASProfile(58563, "AS58563", "chinanet-hubei", "Chinanet Hubei", "CN", 118, 30, 2.0),
)


def _scale_to_sum(shape: Sequence[float], total: int) -> List[int]:
    """Scale a positive shape vector to integers summing to ``total``.

    Uses largest-remainder rounding so the result is exact, with every
    entry at least 1 (callers guarantee ``total >= len(shape)``).
    """
    n = len(shape)
    if total < n:
        raise ConfigurationError("total too small for shape", total=total, entries=n)
    shape_sum = float(sum(shape))
    raw = [max(1.0, value * (total - n) / shape_sum + 1.0) for value in shape]
    floored = [int(value) for value in raw]
    deficit = total - sum(floored)
    if deficit < 0:
        # Rounding overshoot: trim from the largest entries (keeps >= 1).
        order = sorted(range(n), key=lambda i: -floored[i])
        idx = 0
        while deficit < 0:
            target = order[idx % n]
            if floored[target] > 1:
                floored[target] -= 1
                deficit += 1
            idx += 1
        return floored
    remainders = sorted(range(n), key=lambda i: -(raw[i] - floored[i]))
    for i in range(deficit):
        floored[remainders[i % n]] += 1
    return floored


class PaperTopologyBuilder:
    """Builds a :class:`Topology` matching the paper's 2018 snapshot.

    Parameters:
        total_nodes: Network size (default: the paper's 13,635,
            times ``scale``).
        total_ases: Number of node-hosting ASes (default 1,660, times
            ``scale``).
        seed: Root seed for the node→prefix placement streams.
        scale: Proportional shrink factor for CI-sized runs: pinned
            profile node and prefix counts, the network total, and the
            AS count all scale together, preserving every shape.

    The builder is deterministic for a given seed.
    """

    #: Cumulative share targets from §V-A used to size the mid tail.
    TARGET_HALF_COVERAGE_ASES = 24

    def __init__(
        self,
        total_nodes: Optional[int] = None,
        total_ases: Optional[int] = None,
        seed: int = 0,
        profiles: Optional[Sequence[ASProfile]] = None,
        scale: float = 1.0,
    ) -> None:
        if not 0.0 < scale <= 1.0:
            raise ConfigurationError("scale must be in (0, 1]", scale=scale)
        base_profiles = tuple(profiles) if profiles is not None else PAPER_TOP_AS_PROFILES
        if scale < 1.0:
            base_profiles = tuple(
                replace(
                    p,
                    nodes=max(1, round(p.nodes * scale)),
                    prefixes=max(1, round(p.prefixes * scale)) if p.prefixes else 0,
                )
                for p in base_profiles
            )
        if total_nodes is None:
            total_nodes = max(200, round(PAPER_TOTAL_NODES * scale))
        if total_ases is None:
            total_ases = max(
                len(base_profiles) + self.TARGET_HALF_COVERAGE_ASES + 2,
                round(PAPER_TOTAL_ASES * scale),
            )
        if total_nodes < 100:
            raise ConfigurationError("total_nodes too small", total_nodes=total_nodes)
        self.profiles = base_profiles
        pinned_nodes = sum(p.nodes for p in self.profiles)
        if total_nodes < pinned_nodes:
            raise ConfigurationError(
                "total_nodes below pinned profile sum",
                total_nodes=total_nodes,
                pinned=pinned_nodes,
            )
        if total_ases < len(self.profiles) + self.TARGET_HALF_COVERAGE_ASES + 1:
            raise ConfigurationError("total_ases too small", total_ases=total_ases)
        self.total_nodes = total_nodes
        self.total_ases = total_ases
        self.streams = RngStreams(seed)

    # ------------------------------------------------------------------
    def build(self) -> Topology:
        """Construct the calibrated topology."""
        topo = Topology()
        placement_rng = self.streams.stream("topology.placement")
        self._plan = AddressPlan()

        pinned_nodes = sum(p.nodes for p in self.profiles)
        remaining_nodes = self.total_nodes - pinned_nodes

        # Mid tail: ranks just below the pinned ASes, sized so the
        # cumulative 50% mark lands near AS rank 24 (Table III).  The
        # mid tail absorbs enough nodes that the long tail averages a
        # handful of nodes per AS, as in the measured network.
        mid_counts = self._mid_tail_counts(remaining_nodes)
        long_tail_nodes = remaining_nodes - sum(mid_counts)
        long_tail_ases = self.total_ases - len(self.profiles) - len(mid_counts)
        tail_counts = self._long_tail_counts(long_tail_nodes, long_tail_ases)

        node_id = 0
        # 1. Pinned top ASes (exact Table II counts).
        for profile in self.profiles:
            node_id = self._add_profiled_as(topo, profile, node_id, placement_rng)

        # 2. Mid tail (synthetic ASes, shared-org folding for a few to
        #    keep organization-level centralization tighter than AS level).
        node_id = self._add_tail(
            topo, mid_counts, node_id, placement_rng, rank_base=100, tier="mid"
        )

        # 3. Long tail.
        node_id = self._add_tail(
            topo, tail_counts, node_id, placement_rng, rank_base=1000, tier="tail"
        )

        if node_id != self.total_nodes:
            raise ConfigurationError(
                "node placement mismatch", placed=node_id, expected=self.total_nodes
            )
        return topo

    # ------------------------------------------------------------------
    def _add_profiled_as(
        self, topo: Topology, profile: ASProfile, node_id: int, rng
    ) -> int:
        if profile.org_id not in topo.orgs:
            topo.add_organization(profile.org_id, profile.org_name, profile.country)
        topo.add_as(
            profile.asn,
            profile.name,
            profile.org_id,
            profile.country,
            num_prefixes=0,  # pool built below with exact count
        )
        num_prefixes = profile.prefixes or max(1, profile.nodes // 20)
        if profile.asn != TOR_PSEUDO_ASN:
            prefix_len = self._prefix_len_for(profile.nodes, num_prefixes)
            pool = PrefixPool(asn=profile.asn)
            for prefix in self._plan.allocate(
                profile.asn, num_prefixes, prefix_len=prefix_len
            ):
                pool.add_prefix(prefix)
            topo.pools[profile.asn] = pool
            weights = self._zipf_weights(num_prefixes, profile.concentration)
            topo.host_nodes_weighted(
                profile.asn, range(node_id, node_id + profile.nodes), weights, rng
            )
        else:
            for nid in range(node_id, node_id + profile.nodes):
                topo.host_node(nid, profile.asn)
        return node_id + profile.nodes

    def _add_tail(
        self,
        topo: Topology,
        counts: Sequence[int],
        node_id: int,
        rng,
        rank_base: int,
        tier: str,
    ) -> int:
        for index, count in enumerate(counts):
            asn = 900_000 + rank_base + index
            # Fold every sixth tail AS into the previous AS's org: the
            # measured network has multi-AS orgs throughout, which is why
            # org-level coverage needs fewer entities than AS-level.
            if index % 6 == 5 and index > 0:
                org_id = f"{tier}-org-{index - 1}"
            else:
                org_id = f"{tier}-org-{index}"
                topo.add_organization(org_id, f"{tier.title()} Org {index}", "??")
            topo.add_as(asn, f"AS{asn}", org_id, "??", num_prefixes=0)
            num_prefixes = max(1, count // 12 + 1)
            pool = PrefixPool(asn=asn)
            for prefix in self._plan.allocate(asn, num_prefixes, prefix_len=24):
                pool.add_prefix(prefix)
            topo.pools[asn] = pool
            weights = self._zipf_weights(num_prefixes, 1.5)
            topo.host_nodes_weighted(
                asn, range(node_id, node_id + count), weights, rng
            )
            node_id += count
        return node_id

    # ------------------------------------------------------------------
    #: Pinned ASes smaller than this are assumed to rank *below* every
    #: synthetic mid-tail AS when sizing the 50%-coverage point.
    MID_TAIL_FLOOR = 60

    def _mid_tail_counts(self, remaining_nodes: int) -> List[int]:
        """Node counts for the synthetic mid-tail ASes.

        The mid tail fills the AS ranks between the pinned top ASes and
        the long tail.  It is sized so the cumulative node share crosses
        50% exactly at rank ``TARGET_HALF_COVERAGE_ASES`` (Table III's
        2018 value of 24): the pinned ASes at or above
        ``MID_TAIL_FLOOR`` nodes occupy the top ranks, and the mid tail
        supplies the remaining ranks and the remaining node mass.
        """
        pinned_large = [p.nodes for p in self.profiles if p.nodes >= self.MID_TAIL_FLOOR]
        slots = max(self.TARGET_HALF_COVERAGE_ASES - len(pinned_large), 2)
        needed = int(self.total_nodes / 2.0) + 1 - sum(pinned_large)
        needed = max(min(needed, remaining_nodes - slots), slots)
        # Gentle linear decay keeps every mid count inside the band
        # (floor, smallest large pinned), preserving the rank ordering.
        shape = [2.6 - 1.6 * i / max(slots - 1, 1) for i in range(slots)]
        return _scale_to_sum(shape, needed)

    @staticmethod
    def _long_tail_counts(total: int, num_ases: int) -> List[int]:
        """Node counts for the long tail (average ~4 nodes per AS).

        The decay exponent is mild (0.45) so the largest tail AS stays
        below the smallest mid-tail AS; a steeper tail head would climb
        into the top-24 ranks and distort the 50%-coverage point.
        """
        shape = [(i + 1) ** -0.45 for i in range(num_ases)]
        return _scale_to_sum(shape, total)

    @staticmethod
    def _prefix_len_for(nodes: int, num_prefixes: int) -> int:
        """Prefix length whose single-prefix capacity covers the AS.

        Zipf-concentrated assignment can put nearly all of an AS's
        nodes into its top prefix, so one prefix must be able to hold
        them all — while the whole pool still fits in the per-AS
        address block (2**22 addresses).
        """
        length = 24
        while length > 8 and (1 << (32 - length)) - 2 < nodes:
            length -= 1
        while num_prefixes * (1 << (32 - length)) > (1 << 22) and length < 30:
            length += 1
        return length

    @staticmethod
    def _zipf_weights(count: int, alpha: float) -> List[float]:
        if count <= 0:
            raise ConfigurationError("weight count must be positive", count=count)
        if alpha <= 0:
            return [1.0] * count
        return [(i + 1) ** -alpha for i in range(count)]


def build_paper_topology(seed: int = 0, **kwargs) -> Topology:
    """One-call construction of the paper-calibrated topology."""
    return PaperTopologyBuilder(seed=seed, **kwargs).build()
