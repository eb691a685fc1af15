"""BGP prefixes and per-AS prefix pools.

Figure 4 of the paper is driven entirely by how a given AS's Bitcoin
nodes are grouped into the BGP prefixes that the AS announces: hijack a
prefix and you capture every node inside it.  This module provides

- :class:`Prefix` — an announced IPv4 network with its origin AS;
- :class:`PrefixPool` — the set of prefixes one AS announces, plus the
  assignment of node IPs into those prefixes;
- :func:`allocate_prefixes` — a deterministic allocator carving disjoint
  prefixes for each AS out of a synthetic address plan.

Prefixes and node addresses are plain ints inside this module: the
paper topology places every node at an address, and no artifact reads
one.  :attr:`Prefix.network`, :meth:`PrefixPool.node_ip` and
:meth:`PrefixPool.assign_node` hand out :mod:`ipaddress` objects,
built when they are asked for.
"""

from __future__ import annotations

import ipaddress
import math
import random
from bisect import bisect
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import TopologyError

__all__ = ["Prefix", "PrefixPool", "AddressPlan", "allocate_prefixes"]

#: Size of the address block reserved per AS in the synthetic plan.
#: 2**22 addresses = 64 consecutive /16s; enough for thousands of /24s.
_PER_AS_BLOCK = 1 << 22

#: Base of the synthetic address plan (keeps out of 0.0.0.0/8).
_PLAN_BASE = int(ipaddress.IPv4Address("1.0.0.0"))


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix announced by an origin AS.

    Equality and hashing read the three ints only; :attr:`network`
    builds the :class:`ipaddress.IPv4Network` on first use.

    Attributes:
        first: The network address as an int (``5.9.0.0/16`` has
            ``first == 0x05090000``).
        prefix_len: The CIDR prefix length.
        origin_asn: ASN that legitimately originates this prefix.
    """

    first: int
    prefix_len: int
    origin_asn: int

    @classmethod
    def from_network(cls, network: ipaddress.IPv4Network, origin_asn: int) -> "Prefix":
        return cls(int(network.network_address), network.prefixlen, origin_asn)

    @cached_property
    def network(self) -> ipaddress.IPv4Network:
        """The announced network (e.g. ``5.9.0.0/16``)."""
        return ipaddress.IPv4Network((self.first, self.prefix_len))

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.prefix_len)

    @property
    def cidr(self) -> str:
        """``str(self.network)``, formatted from the ints."""
        return f"{_dotted(self.first)}/{self.prefix_len}"

    def contains(self, ip: ipaddress.IPv4Address) -> bool:
        return ip in self.network

    def subprefixes(self, new_len: int) -> List["Prefix"]:
        """Split into the more-specific prefixes of length ``new_len``.

        Used by hijacks: announcing more-specific prefixes of a victim
        prefix steals its traffic under longest-prefix-match routing.
        """
        if new_len <= self.prefix_len:
            raise TopologyError(
                "subprefix must be more specific",
                prefix=self.cidr,
                new_len=new_len,
            )
        if new_len > 32:
            raise TopologyError("IPv4 prefix length cannot exceed 32", new_len=new_len)
        return [
            Prefix.from_network(sub, self.origin_asn)
            for sub in self.network.subnets(new_prefix=new_len)
        ]

    def __str__(self) -> str:
        return f"{self.cidr} (AS{self.origin_asn})"


def _dotted(address: int) -> str:
    """Dotted-quad text of an IPv4 address int, as ``ipaddress`` prints it."""
    return ".".join(map(str, address.to_bytes(4, "big")))


@dataclass
class PrefixPool:
    """The prefixes announced by one AS and the node IPs inside them.

    The pool records, for every hosted Bitcoin node, which prefix its IP
    falls into and the IP itself, stored as an int.  ``nodes_by_prefix``
    is the grouping Figure 4 needs: the analysis sorts prefixes by node
    count and accumulates the hijack cost curve.  Prefixes join the pool through :meth:`add_prefix`,
    which keeps the prefix→position index in step with ``prefixes``.
    """

    asn: int
    prefixes: List[Prefix] = field(default_factory=list)
    _node_prefix: Dict[int, Prefix] = field(default_factory=dict, repr=False)
    _node_ip: Dict[int, int] = field(default_factory=dict, repr=False)
    _next_host: Dict[Prefix, int] = field(default_factory=dict, repr=False)
    _index: Dict[Prefix, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        prefixes, self.prefixes = self.prefixes, []
        for prefix in prefixes:
            self.add_prefix(prefix)

    def add_prefix(self, prefix: Prefix) -> None:
        if prefix.origin_asn != self.asn:
            raise TopologyError(
                "prefix origin does not match pool AS",
                asn=self.asn,
                origin=prefix.origin_asn,
            )
        position = len(self.prefixes)
        if self._index.setdefault(prefix, position) != position:
            raise TopologyError(
                "prefix already in pool", asn=self.asn, prefix=str(prefix)
            )
        self.prefixes.append(prefix)

    @property
    def num_prefixes(self) -> int:
        return len(self.prefixes)

    @property
    def num_nodes(self) -> int:
        return len(self._node_prefix)

    def assign_node(self, node_id: int, prefix: Prefix) -> ipaddress.IPv4Address:
        """Give ``node_id`` the next free host address inside ``prefix``."""
        if prefix not in self._index:
            raise TopologyError("prefix not in pool", asn=self.asn, prefix=str(prefix))
        if node_id in self._node_prefix:
            raise TopologyError("node already assigned", node_id=node_id)
        host_index = self._next_host.get(prefix, 1)
        if host_index >= prefix.num_addresses - 1:
            raise TopologyError(
                "prefix exhausted", prefix=str(prefix), hosts=host_index
            )
        ip = prefix.first + host_index
        self._next_host[prefix] = host_index + 1
        self._node_prefix[node_id] = prefix
        self._node_ip[node_id] = ip
        return ipaddress.IPv4Address(ip)

    def assign_nodes_weighted(
        self,
        node_ids: Sequence[int],
        weights: Sequence[float],
        rng: random.Random,
    ) -> None:
        """Distribute nodes over prefixes according to ``weights``.

        Each node gets the next free host address of its drawn prefix,
        as :meth:`assign_node` would give it; read it back with
        :meth:`node_ip`.  ``weights`` has one entry per prefix in
        ``self.prefixes``; the builder passes a Zipf-like vector whose
        skew is calibrated per AS so the resulting hijack-cost curve
        matches Figure 4.

        Each node's prefix is drawn exactly as
        ``rng.choices(live, weights=live_weights)[0]`` would draw it:
        the same ``random()`` calls, the same picks and the same stream
        position afterwards.  The draw calls the primitive directly:
        ``live[bisect(cum, rng.random() * total, 0, len(live) - 1)]``
        with ``total = cum[-1] + 0.0`` is the expression
        ``Random.choices`` evaluates for ``cum_weights`` in CPython's
        ``Lib/random.py`` (the same from 3.9 through 3.13), minus the
        wrapper's per-call list and checks; the total is checked as
        ``choices`` checks it whenever the sums are built.

        ``live`` starts as every prefix; a drawn prefix that is full
        leaves it and the draw is retried, so a heavily-weighted small
        prefix overflows into the others instead of failing.  The
        prefix sums are built once and rebuilt only when a prefix
        leaves the live set, so placing N nodes over P prefixes costs
        O(N log P) draws plus O(P) per prefix that fills.
        """
        prefixes = self.prefixes
        if len(weights) != len(prefixes):
            raise TopologyError(
                "one weight per prefix required",
                prefixes=len(prefixes),
                weights=len(weights),
            )
        if not prefixes:
            raise TopologyError("pool has no prefixes", asn=self.asn)
        # Bookkeeping by prefix position: host index i is free while
        # i < limit, i.e. below the broadcast address.
        limits = [(1 << (32 - p.prefix_len)) - 1 for p in prefixes]
        next_host = [1] * len(prefixes)
        for prefix, host_index in self._next_host.items():
            next_host[self._index[prefix]] = host_index
        capacity = sum(limits) - sum(next_host)
        if capacity < len(node_ids):
            raise TopologyError(
                "pool capacity exceeded",
                asn=self.asn,
                capacity=capacity,
                nodes=len(node_ids),
            )
        node_prefix, node_ip = self._node_prefix, self._node_ip
        live = list(range(len(prefixes)))
        cum = _cumulative_weights(weights, live)
        total, hi = _checked_total(cum), len(live) - 1
        draw = rng.random
        touched: Dict[int, None] = {}
        try:
            for node_id in node_ids:
                while True:
                    index = live[bisect(cum, draw() * total, 0, hi)]
                    if next_host[index] < limits[index]:
                        break
                    live.remove(index)
                    cum = _cumulative_weights(weights, live)
                    total, hi = _checked_total(cum), len(live) - 1
                if node_id in node_prefix:
                    raise TopologyError("node already assigned", node_id=node_id)
                prefix = prefixes[index]
                host_index = next_host[index]
                next_host[index] = host_index + 1
                touched[index] = None
                node_prefix[node_id] = prefix
                node_ip[node_id] = prefix.first + host_index
        finally:
            # Publish the host counters in first-use order, so
            # ``_next_host`` matches node-by-node assign_node calls.
            for index in touched:
                self._next_host[prefixes[index]] = next_host[index]

    def node_ip(self, node_id: int) -> ipaddress.IPv4Address:
        try:
            return ipaddress.IPv4Address(self._node_ip[node_id])
        except KeyError:
            raise TopologyError("node not in pool", node_id=node_id) from None

    def prefix_of(self, node_id: int) -> Prefix:
        try:
            return self._node_prefix[node_id]
        except KeyError:
            raise TopologyError("node not in pool", node_id=node_id) from None

    def nodes_by_prefix(self) -> Dict[Prefix, List[int]]:
        """Group hosted node ids by the prefix containing their IP."""
        grouped: Dict[Prefix, List[int]] = {}
        for node_id, prefix in self._node_prefix.items():
            grouped.setdefault(prefix, []).append(node_id)
        return grouped

    def node_counts(self) -> List[Tuple[Prefix, int]]:
        """(prefix, node count) pairs sorted by descending node count.

        This is the greedy hijack order: an attacker targeting this AS
        hijacks the most populated prefixes first; equal counts go in
        CIDR text order.
        """
        grouped = self.nodes_by_prefix()
        counts = [(prefix, len(nodes)) for prefix, nodes in grouped.items()]
        counts.sort(key=lambda item: (-item[1], item[0].cidr))
        return counts

    def __iter__(self) -> Iterator[Prefix]:
        return iter(self.prefixes)


def _cumulative_weights(weights: Sequence[float], live: List[int]) -> List[float]:
    """Running sums of ``weights`` over the ``live`` prefix positions.

    The list ``random.choices(weights=...)`` builds internally on every
    call; bisecting it as ``choices`` does gives the same draws.
    """
    return list(accumulate(weights[index] for index in live))


def _checked_total(cum: List[float]) -> float:
    """The float total of prefix sums ``cum``, validated as
    ``random.choices`` validates it."""
    total = cum[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not math.isfinite(total):
        raise ValueError("Total of weights must be finite")
    return total


class AddressPlan:
    """A sequential allocator of disjoint prefixes over the IPv4 space.

    Allocation is a simple bump cursor aligned to each request's prefix
    boundary, so different ASes' prefixes never overlap and the plan is
    fully deterministic.  One plan instance is shared by everything
    built into one topology.
    """

    def __init__(self, base: Optional[int] = None) -> None:
        self._cursor = _PLAN_BASE if base is None else base

    def allocate(self, asn: int, count: int, prefix_len: int = 24) -> List[Prefix]:
        """Carve ``count`` disjoint prefixes of ``prefix_len`` for ``asn``."""
        if count <= 0:
            raise TopologyError("prefix count must be positive", count=count)
        if not 8 <= prefix_len <= 30:
            raise TopologyError("prefix_len out of range", prefix_len=prefix_len)
        block_size = 1 << (32 - prefix_len)
        # Align the cursor to the prefix boundary.
        base = (self._cursor + block_size - 1) // block_size * block_size
        end = base + count * block_size
        if end > (1 << 32):
            raise TopologyError(
                "IPv4 plan exhausted", asn=asn, count=count, prefix_len=prefix_len
            )
        self._cursor = end
        return [Prefix(base + i * block_size, prefix_len, asn) for i in range(count)]

    @property
    def used_addresses(self) -> int:
        return self._cursor - _PLAN_BASE


def allocate_prefixes(
    asn: int,
    count: int,
    as_index: int = 0,
    prefix_len: int = 24,
    plan: Optional[AddressPlan] = None,
) -> List[Prefix]:
    """Carve ``count`` disjoint prefixes of length ``prefix_len`` for an AS.

    With an explicit ``plan``, allocation is sequential from the plan's
    cursor (preferred — never overlaps).  Without one, the AS gets a
    private slice indexed by ``as_index``; this standalone mode is only
    safe for small topologies and is kept for direct API use in tests
    and examples.
    """
    if plan is not None:
        return plan.allocate(asn, count, prefix_len)
    if count <= 0:
        raise TopologyError("prefix count must be positive", count=count)
    if not 8 <= prefix_len <= 30:
        raise TopologyError("prefix_len out of range", prefix_len=prefix_len)
    block_size = 1 << (32 - prefix_len)
    if count * block_size > _PER_AS_BLOCK:
        raise TopologyError(
            "AS block exhausted", asn=asn, count=count, prefix_len=prefix_len
        )
    base = _PLAN_BASE + as_index * _PER_AS_BLOCK
    if base + count * block_size > (1 << 32):
        raise TopologyError("IPv4 plan exhausted", asn=asn, as_index=as_index)
    return [Prefix(base + i * block_size, prefix_len, asn) for i in range(count)]
