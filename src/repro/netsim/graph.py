"""Sparse-graph (CSR) propagation engine for arbitrary topologies.

:class:`GraphSimulatorVec` is the vectorized engine: node state lives
in NumPy integer arrays and each step's failure mask, partner choice
and height-compare/adopt reconcile are array kernels over
compressed-sparse-row adjacency — ``indptr``/``indices`` arrays
describing an *arbitrary* directed graph, with optional per-edge delay
ticks.  Mining, fork bookkeeping, and the per-step phase structure are
shared with the scalar grid engine through ``_GridEngineBase``, so the
same physics (Bernoulli block production, honest/attacker hash-rate
split, natural forks, longest-chain adoption) runs on any topology the
paper cares about — the square grid, AS-level graphs built from
:mod:`repro.topology`, or synthetic degree-calibrated networks at
10^5-10^6 nodes.

RNG protocol 1 (the default): all draws come from the NumPy generator
of the stream named by ``GraphSpec.rng_stream`` (``"graph.vec"``; the
grid bridge pins ``"grid.vec"``).  Per step, in order: one uniform for
the honest-mining gate; one uniform for the attacker gate when the
attack is live; inside an honest mine, one uniform for the
natural-fork gate (when honest nodes exist), then one ``integers``
draw to pick the stale miner, or per-guard ``integers`` draws for the
seed nodes (a row/column pair on the grid bridge); then the
communication phase draws one length-N uniform vector (failure mask)
and one length-N neighbour-choice vector: ``integers(0, d, size=N)``
when every node has the same out-degree ``d`` (the degree-regular fast
path, which the 8-regular grid bridge always takes), else
``integers(0, degrees)`` with the per-node degree as the bound
(degree-0 nodes draw a dummy and are masked out).  The protocol
depends only on ``(config, step)``, never on worker count or host, so
runs are deterministic per seed and identical under any ``jobs=N``
fan-out.

RNG protocol v2 (``GraphSpec.rng_protocol = 2``): the communication
draws above are the protocol-1 cost floor — ``Generator.integers``
with an array bound has no ``out=`` and runs Lemire rejection per
element, ~20 ms/step at 10^6 nodes.  Protocol 2 replaces them with
*one* length-N float32 uniform vector filled into a preallocated
buffer (``Generator.random(out=u, dtype=float32)``) that drives both
decisions: ``u < failure_rate`` gates failures, and for the survivors
the conditional uniform ``(u - failure_rate) / (1 - failure_rate)``
picks the neighbour (``floor(v * degree)``, clamped to
``[0, degree - 1]`` — the clamp also disposes of the negative values
failed contacts produce, which are masked out anyway).  Protocol 2
also *fast-forwards quiesced steps*: when every non-pinned node sits
at the global maximum height no offer can adopt, so the step draws
nothing (see ``GraphSimulatorVec._comm_quiesced``; the skip is
state-identical to a full step and deterministic, so it is simply
part of the versioned draw sequence).  Mining draws are unchanged.
Because the draw sequence differs, protocol 2 is an
*explicitly versioned stream*: the engine appends ``".p2"`` to
``rng_stream``, so protocol-1 trajectories (and every golden) are
untouched, and a protocol-2 run can never silently replay protocol-1
draws.  The two protocols agree statistically (pinned by the
equivalence tests), not draw-by-draw.  The grid bridge
(``grid_size``) requires protocol 1.

Reconcile: the synchronous push+pull step resolves write conflicts
deterministically — every node sees all offers made this step (its
partner's view, plus every node that chose it as partner) and adopts
the offer with the greatest height, ties broken toward the lowest
source index.  Offers are encoded as
``(height << source_bits) | (N - 1 - source)`` (see
:func:`offer_source_bits`), so one indexed max-reduce over the step's
contact batch resolves the height compare *and* the tie-break.  Every
intermediate (failure mask, partner gather, offer codes, best-offer
table, adoption mask) is written into preallocated buffers, and offer
codes are adaptively rebased to int32 when the step's height spread
fits (halving gather/scatter traffic).  An explicit
argsort/segment-reduce variant was benchmarked ~30x slower than the
indexed max-reduce on NumPy >= 2.x and rejected.

Grid bridge: :meth:`GraphSpec.from_grid` emits the Moore neighbourhood
as CSR in :func:`~repro.netsim.grid.moore_neighbors` order and pins
``rng_stream="grid.vec"`` plus ``grid_size`` (so honest-seed cells are
drawn as the grid's row/column pair).  ``make_simulator`` runs grid
configs of size >= ``VEC_SIZE_THRESHOLD`` (and any grid config with
``engine="graph"``) through it; its trajectories are pinned by
``tests/netsim/fixtures/retired_paths.json``.

Per-edge delays: an edge with delay ``d > 0`` delivers both the pull
offer (the partner's view to the chooser) and the push offer (the
chooser's view to the partner) ``d`` steps after the contact, carrying
the height *and fork label captured at send time*.  Matured offers
reconcile through the same max-reduce as same-step offers; ties on the
encoded ``(height, source)`` key resolve toward the latest-enqueued
batch.  That tie-break is *observationally order-independent*: two
queued offers can only tie when they carry the same ``(height,
source)``, and a node's label cannot change without its height
changing, so tied offers always carry the same label (pinned by the
maturation-permutation property test).  Delay 0 (the default) is the
same-step semantics.  Queued offers live in a preallocated flat store
of arrays (destination, source, height, label, arrival step), appended
per step and compacted on maturation, so delivery is one vectorized
merge; the total queue is bounded by ``2 * N * max_delay`` entries
(pinned under Hypothesis).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError
from ..rng import RngStreams
from .grid import (
    ForkChain,
    GridConfig,
    _GridEngineBase,
    moore_neighbors,
    span_ratio_delay,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel.metrics import PhaseTimingCollector
    from .latency import EmpiricalLatency

__all__ = [
    "GraphSpec",
    "GraphConfig",
    "GraphSnapshot",
    "GraphSimulatorVec",
    "graph_config_from_grid",
    "hijack_partition_mask",
    "offer_height_bound",
    "offer_source_bits",
]

#: Dtype the engine carries heights and encoded offers in.  The
#: reconcile packs ``(height, source)`` into a single integer
#: ``(height << source_bits) | (N - 1 - source)`` (see
#: :func:`offer_source_bits`), so this dtype bounds how far a
#: simulation can mine before the code overflows.
OFFER_DTYPE = np.int64

#: Mined-height headroom every topology must leave in the offer
#: encoding; :class:`GraphSpec` refuses node counts that could not
#: mine this many blocks without overflowing.
OFFER_HEIGHT_HEADROOM = 1 << 20

#: Accepted ``GraphSpec.rng_protocol`` values (see the module
#: docstring; 2 is the versioned fast-draw stream).
RNG_PROTOCOLS = (1, 2)


def offer_source_bits(num_nodes: int) -> int:
    """Bits the offer encoding reserves for the reversed source index.

    Offers pack ``(height, source)`` as
    ``(height << bits) | (num_nodes - 1 - source)`` — a shift/mask
    compression of the historical ``height * N + (N - 1 - source)``
    multiply encode.  Both encodings are strictly monotone in the
    ``(height, N - 1 - source)`` lexicographic order, so the max-reduce
    reconcile picks the same winner (greatest height, ties toward the
    lowest source index) under either; the shift form decodes with a
    shift and a mask instead of a division and a modulo.
    """
    if num_nodes <= 1:
        return 1
    return int(num_nodes - 1).bit_length()


def offer_height_bound(num_nodes: int) -> int:
    """Highest mined height the offer encoding supports at this size.

    The reconcile packs offers as
    ``(height << offer_source_bits(N)) | (N - 1 - source)`` in
    ``OFFER_DTYPE``; this is the largest ``height`` for which the
    shifted code still fits.
    """
    if num_nodes <= 0:
        return 0
    max_code = int(np.iinfo(OFFER_DTYPE).max)
    return max_code >> offer_source_bits(num_nodes)


def _as_index_array(values, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ConfigurationError(f"{name} must be one-dimensional", shape=array.shape)
    return array


@dataclass(eq=False)
class GraphSpec:
    """A directed graph in CSR form, plus simulation metadata.

    Attributes:
        indptr: Row pointer array of length ``num_nodes + 1``; node
            ``i``'s out-edges are ``indices[indptr[i]:indptr[i + 1]]``.
        indices: Flat destination array (one entry per edge).  The
            within-row order is part of the spec: the neighbour-choice
            draw indexes into it.
        edge_delays: Optional per-edge delay ticks (same length as
            ``indices``, non-negative).  ``None`` means every edge
            delivers in the same step, like the grid engines.
        grid_size: Set by :meth:`from_grid` — honest-seed cells are
            then drawn as a (row, column) pair, replaying the grid
            engines' two-draw protocol exactly.
        rng_stream: Name of the NumPy stream the engine draws from
            (``"graph.vec"``; the grid bridge pins ``"grid.vec"``).
        node_ids: Optional external identity per node (e.g. ASNs for
            topology-derived graphs), in node-index order.
        node_weights: Optional per-node weight (e.g. Bitcoin full
            nodes hosted per AS).
        rng_protocol: Communication draw protocol: 1 (the historical
            draws, default) or 2 (buffered float32 fast draws under
            the versioned ``rng_stream + ".p2"`` stream; see the
            module docstring).  The grid bridge requires protocol 1.
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_delays: Optional[np.ndarray] = None
    grid_size: Optional[int] = None
    rng_stream: str = "graph.vec"
    node_ids: Optional[Tuple[int, ...]] = None
    node_weights: Optional[np.ndarray] = None
    rng_protocol: int = 1
    _degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.indptr = _as_index_array(self.indptr, "indptr")
        self.indices = _as_index_array(self.indices, "indices")
        if self.indptr.size < 2:
            raise ConfigurationError("graph needs at least one node")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ConfigurationError(
                "indptr must span indices",
                first=int(self.indptr[0]),
                last=int(self.indptr[-1]),
                edges=int(self.indices.size),
            )
        self._degrees = np.diff(self.indptr)
        if (self._degrees < 0).any():
            raise ConfigurationError("indptr must be non-decreasing")
        num_nodes = self.num_nodes
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= num_nodes
        ):
            raise ConfigurationError(
                "edge destination out of range", num_nodes=num_nodes
            )
        if self.edge_delays is not None:
            self.edge_delays = _as_index_array(self.edge_delays, "edge_delays")
            if self.edge_delays.size != self.indices.size:
                raise ConfigurationError(
                    "one delay per edge required",
                    edges=int(self.indices.size),
                    delays=int(self.edge_delays.size),
                )
            if self.edge_delays.size and self.edge_delays.min() < 0:
                raise ConfigurationError("edge delays must be non-negative")
        if self.node_ids is not None and len(self.node_ids) != num_nodes:
            raise ConfigurationError(
                "one node id per node required",
                nodes=num_nodes,
                ids=len(self.node_ids),
            )
        if not self.rng_stream:
            raise ConfigurationError("rng_stream must be non-empty")
        if self.rng_protocol not in RNG_PROTOCOLS:
            raise ConfigurationError(
                "unknown rng_protocol",
                protocol=self.rng_protocol,
                choices=RNG_PROTOCOLS,
            )
        if self.rng_protocol != 1 and self.grid_size is not None:
            raise ConfigurationError(
                "the grid bridge replays the grid engine's draw "
                "sequence and therefore requires rng_protocol 1",
                protocol=self.rng_protocol,
            )
        height_bound = offer_height_bound(num_nodes)
        if height_bound < OFFER_HEIGHT_HEADROOM:
            raise ConfigurationError(
                f"offer-encoding headroom exhausted: at {num_nodes} nodes "
                f"the {np.dtype(OFFER_DTYPE).name} code "
                "(height << source_bits) | (N - 1 - source) overflows "
                f"past height {height_bound}, below the required "
                f"{OFFER_HEIGHT_HEADROOM}-block headroom",
                num_nodes=num_nodes,
                height_bound=height_bound,
                required_headroom=OFFER_HEIGHT_HEADROOM,
            )

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree per node."""
        return self._degrees

    @property
    def regular_degree(self) -> Optional[int]:
        """The uniform out-degree, or ``None`` for irregular graphs."""
        if self.num_edges == 0:
            return None
        first = int(self._degrees[0])
        if first > 0 and bool((self._degrees == first).all()):
            return first
        return None

    # ------------------------------------------------------------------
    # Adapters
    # ------------------------------------------------------------------
    @classmethod
    def from_grid(cls, size: int) -> "GraphSpec":
        """The toroidal Moore-neighbourhood grid as CSR.

        Rows keep :func:`~repro.netsim.grid.moore_neighbors`' (dr, dc)
        enumeration order and the spec pins ``rng_stream="grid.vec"``
        and ``grid_size``, so a bridged run draws the grid's
        row/column honest-seed protocol.
        """
        if size < 2:
            raise ConfigurationError("grid size must be >= 2", size=size)
        num_nodes = size * size
        return cls(
            indptr=np.arange(num_nodes + 1, dtype=np.int64) * 8,
            indices=moore_neighbors(size).reshape(-1),
            grid_size=size,
            rng_stream="grid.vec",
        )

    @classmethod
    def from_topology(
        cls,
        topology,
        peers_per_node: int = 8,
        seed: int = 0,
        delay_model: Optional["EmpiricalLatency"] = None,
        tick_seconds: Optional[float] = None,
    ) -> "GraphSpec":
        """AS-level graph from a :class:`~repro.topology.topology.Topology`.

        One graph node per registered AS, in **sorted ASN order** —
        construction is ordering-stable no matter what insertion order
        the dict-backed registries saw.  Each AS draws
        ``peers_per_node`` distinct peers weighted by hosted-node
        count plus one (bigger ASes are better connected, per the
        "All that Glitters is not Bitcoin" degree skew), and the edge
        set is symmetrized: announcements travel both ways over a
        peering.  ``node_ids`` carries the ASNs and ``node_weights``
        the hosted Bitcoin node counts, so BGP-hijack captures map
        back onto graph nodes (see :func:`hijack_partition_mask`).

        With ``delay_model`` (an
        :class:`~repro.netsim.latency.EmpiricalLatency`), every
        directed edge draws a propagation delay from the calibrated
        distribution, quantized to ticks of ``tick_seconds`` (default:
        the span-ratio tick for this node count) — see
        :meth:`with_delay_model`.
        """
        if peers_per_node < 1:
            raise ConfigurationError(
                "peers_per_node must be >= 1", peers=peers_per_node
            )
        asns = sorted(topology.ases.asns())
        num_nodes = len(asns)
        if num_nodes < 2:
            raise ConfigurationError(
                "topology must register at least two ASes", ases=num_nodes
            )
        counts = topology.nodes_per_as()
        weights = np.array(
            [counts.get(asn, 0) for asn in asns], dtype=np.float64
        )
        rng = RngStreams(seed).numpy_stream("graph.topology")
        k = min(peers_per_node, num_nodes - 1)
        preference = weights + 1.0
        chosen: List[np.ndarray] = []
        for i in range(num_nodes):
            p = preference.copy()
            p[i] = 0.0
            p /= p.sum()
            chosen.append(np.sort(rng.choice(num_nodes, size=k, replace=False, p=p)))
        src = np.repeat(np.arange(num_nodes, dtype=np.int64), k)
        dst = np.concatenate(chosen).astype(np.int64)
        # Symmetrize, then sort and deduplicate (row-major edge order).
        a = np.concatenate([src, dst])
        b = np.concatenate([dst, src])
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        keep = np.ones(a.size, dtype=bool)
        keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        a, b = a[keep], b[keep]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(a, minlength=num_nodes))
        spec = cls(
            indptr=indptr,
            indices=b,
            node_ids=tuple(int(asn) for asn in asns),
            node_weights=weights.astype(np.int64),
        )
        if delay_model is not None:
            spec = spec.with_delay_model(
                delay_model, tick_seconds=tick_seconds, seed=seed
            )
        return spec

    @classmethod
    def power_law(
        cls,
        num_nodes: int,
        base_degree: int = 8,
        tail_alpha: float = 2.0,
        max_extra_degree: int = 120,
        max_delay: int = 0,
        seed: int = 0,
        delay_model: Optional["EmpiricalLatency"] = None,
        tick_seconds: Optional[float] = None,
        rng_protocol: int = 1,
    ) -> "GraphSpec":
        """Degree-calibrated power-law topology for scale runs.

        Every node gets Bitcoin's default ``base_degree`` (8) outbound
        edges plus a Pareto(``tail_alpha``) heavy tail capped at
        ``max_extra_degree`` — the measured degree skew of "All that
        Glitters is not Bitcoin" (a reachable core of well-connected
        supernodes over a thin edge).  Targets are drawn
        preferentially by degree, so high-degree nodes are also
        popular.  Construction is fully vectorized and deterministic
        per ``seed`` (streams ``"graph.synthetic"``).

        Delays, one of:

        - ``max_delay > 0``: every edge draws a uniform delay in
          ``[0, max_delay]`` ticks (the historical synthetic knob);
        - ``delay_model``: every edge draws from the calibrated
          empirical propagation-delay distribution
          (:class:`~repro.netsim.latency.EmpiricalLatency`), quantized
          to ticks of ``tick_seconds`` — default the span-ratio tick
          ``span_ratio_delay(num_nodes)`` — via
          :meth:`with_delay_model`.

        ``rng_protocol=2`` selects the versioned fast-draw
        communication protocol (see the module docstring), the
        recommended setting at 10^5 nodes and beyond.
        """
        if num_nodes < 2:
            raise ConfigurationError("num_nodes must be >= 2", num=num_nodes)
        if base_degree < 1:
            raise ConfigurationError("base_degree must be >= 1", base=base_degree)
        if tail_alpha <= 0:
            raise ConfigurationError("tail_alpha must be positive", alpha=tail_alpha)
        if max_delay < 0:
            raise ConfigurationError("max_delay must be >= 0", delay=max_delay)
        if max_delay > 0 and delay_model is not None:
            raise ConfigurationError(
                "max_delay and delay_model are mutually exclusive delay "
                "sources",
                max_delay=max_delay,
            )
        rng = RngStreams(seed).numpy_stream("graph.synthetic")
        extra = np.minimum(
            rng.pareto(tail_alpha, num_nodes), float(max_extra_degree)
        ).astype(np.int64)
        degrees = np.minimum(base_degree + extra, num_nodes - 1)
        total = int(degrees.sum())
        weights = degrees / float(total)
        targets = rng.choice(num_nodes, size=total, p=weights).astype(np.int64)
        src = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        loops = targets == src
        if loops.any():
            targets[loops] = (targets[loops] + 1) % num_nodes
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(degrees)
        delays = (
            rng.integers(0, max_delay + 1, size=total) if max_delay > 0 else None
        )
        spec = cls(
            indptr=indptr,
            indices=targets,
            edge_delays=delays,
            rng_protocol=rng_protocol,
        )
        if delay_model is not None:
            spec = spec.with_delay_model(
                delay_model, tick_seconds=tick_seconds, seed=seed
            )
        return spec

    # ------------------------------------------------------------------
    def with_delay_model(
        self,
        delay_model: "EmpiricalLatency",
        tick_seconds: Optional[float] = None,
        seed: int = 0,
    ) -> "GraphSpec":
        """The spec with per-edge delays drawn from ``delay_model``.

        Every directed edge samples one propagation delay from the
        calibrated empirical CDF and quantizes it to ticks of
        ``tick_seconds`` (default: the span-ratio tick
        ``span_ratio_delay(num_nodes)``, the engine's per-step wall
        time).  Sampling streams ``"graph.delay"`` under ``seed``, so
        the delay assignment is deterministic and independent of the
        topology draws.  Node identity, edge order, and the RNG
        protocol are preserved.
        """
        if tick_seconds is None:
            tick_seconds = span_ratio_delay(self.num_nodes)
        rng = RngStreams(seed).numpy_stream("graph.delay")
        ticks = delay_model.sample_edge_ticks(
            rng, self.num_edges, tick_seconds=tick_seconds
        )
        return GraphSpec(
            indptr=self.indptr,
            indices=self.indices,
            edge_delays=ticks,
            grid_size=self.grid_size,
            rng_stream=self.rng_stream,
            node_ids=self.node_ids,
            node_weights=self.node_weights,
            rng_protocol=self.rng_protocol,
        )

    # ------------------------------------------------------------------
    def unreachable(self, mask: Sequence[bool]) -> "GraphSpec":
        """The spec with the masked nodes made unreachable.

        An unreachable peer (NATed / firewalled, the overwhelming
        majority of the network per the paper's §III measurement)
        still dials out but accepts no inbound connections: edges
        *from* masked nodes survive, edges *to* them are removed.
        Node count, identity, and surviving edge order are preserved.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_nodes,):
            raise ConfigurationError(
                "one mask entry per node required",
                nodes=self.num_nodes,
                mask=int(mask.size),
            )
        keep = ~mask[self.indices]
        src = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), self._degrees
        )
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(src[keep], minlength=self.num_nodes))
        return GraphSpec(
            indptr=indptr,
            indices=self.indices[keep],
            edge_delays=(
                None if self.edge_delays is None else self.edge_delays[keep]
            ),
            grid_size=self.grid_size,
            rng_stream=self.rng_stream,
            node_ids=self.node_ids,
            node_weights=self.node_weights,
            rng_protocol=self.rng_protocol,
        )

    def partitioned(self, mask: Sequence[bool]) -> "GraphSpec":
        """The spec with every edge crossing ``mask`` removed.

        ``mask`` is a boolean array over nodes (True = inside the
        partition); edges whose endpoints disagree are cut, modeling a
        BGP-hijack or nation-state partition.  Node count, identity,
        and within-partition edge order are preserved.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_nodes,):
            raise ConfigurationError(
                "one mask entry per node required",
                nodes=self.num_nodes,
                mask=int(mask.size),
            )
        src = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), self._degrees
        )
        keep = mask[src] == mask[self.indices]
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(src[keep], minlength=self.num_nodes))
        return GraphSpec(
            indptr=indptr,
            indices=self.indices[keep],
            edge_delays=(
                None if self.edge_delays is None else self.edge_delays[keep]
            ),
            grid_size=self.grid_size,
            rng_stream=self.rng_stream,
            node_ids=self.node_ids,
            node_weights=self.node_weights,
            rng_protocol=self.rng_protocol,
        )


def hijack_partition_mask(
    spec: GraphSpec,
    topology,
    hijack,
    table,
    threshold: float = 0.5,
) -> np.ndarray:
    """Boolean node mask of ASes captured by a BGP hijack.

    For every graph node (an AS of a :meth:`GraphSpec.from_topology`
    spec), counts how many of its hosted node IPs currently route to
    the hijacker under ``table`` and marks the node when the captured
    fraction reaches ``threshold``.  The mask feeds
    :meth:`GraphSpec.partitioned`, turning a routing-layer attack from
    :mod:`repro.topology.bgp` into a propagation-layer partition.
    """
    if spec.node_ids is None:
        raise ConfigurationError(
            "spec has no node ids; build it with GraphSpec.from_topology"
        )
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError("threshold must be in (0, 1]", threshold=threshold)
    mask = np.zeros(spec.num_nodes, dtype=bool)
    for node, asn in enumerate(spec.node_ids):
        ips = topology.node_ips_in_as(asn)
        if not ips:
            continue
        captured = hijack.captured_ips(table, ips)
        mask[node] = len(captured) >= threshold * len(ips)
    return mask


@dataclass(frozen=True, eq=False)
class GraphConfig:
    """Parameters of a sparse-graph simulation.

    The simulation fields mirror :class:`~repro.netsim.grid.GridConfig`
    (per-communication failure rate, steps per expected block,
    honest/attacker hash split, natural-fork rate), with the topology
    supplied as a :class:`GraphSpec` and the attacker pinned to a node
    index instead of a grid cell.
    """

    spec: GraphSpec
    failure_rate: float = 0.10
    steps_per_block: int = 50
    attacker_share: float = 0.30
    attacker_node: int = 0
    attack_start_step: int = 0
    natural_fork_rate: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate < 1.0:
            raise ConfigurationError("failure_rate in [0,1)")
        if self.steps_per_block < 1:
            raise ConfigurationError("steps_per_block must be >= 1")
        if not 0.0 <= self.attacker_share < 1.0:
            raise ConfigurationError("attacker_share in [0,1)")
        if not 0.0 <= self.natural_fork_rate <= 1.0:
            raise ConfigurationError("natural_fork_rate in [0,1]")
        if not 0 <= self.attacker_node < self.spec.num_nodes:
            raise ConfigurationError(
                "attacker_node outside graph",
                node=self.attacker_node,
                num_nodes=self.spec.num_nodes,
            )

    @property
    def num_nodes(self) -> int:
        return self.spec.num_nodes


def graph_config_from_grid(config: GridConfig) -> GraphConfig:
    """Bridge a grid config onto the graph engine (bit-identical run)."""
    row, col = config.attacker_cell
    return GraphConfig(
        spec=GraphSpec.from_grid(config.size),
        failure_rate=config.failure_rate,
        steps_per_block=config.steps_per_block,
        attacker_share=config.attacker_share,
        attacker_node=row * config.size + col,
        attack_start_step=config.attack_start_step,
        natural_fork_rate=config.natural_fork_rate,
        seed=config.seed,
    )


@dataclass(frozen=True)
class GraphSnapshot:
    """State of the graph at one step: fork label and height per node."""

    step: int
    labels: Tuple[str, ...]
    heights: Tuple[int, ...]

    def fork_fractions(self) -> Dict[str, float]:
        counts: Dict[str, int] = {}
        for label in self.labels:
            counts[label] = counts.get(label, 0) + 1
        total = len(self.labels)
        return {label: count / total for label, count in counts.items()}


class _PhaseLapper:
    """Records wall-clock laps between communicate sub-phases."""

    __slots__ = ("_metrics", "_last")

    def __init__(self, metrics: "PhaseTimingCollector") -> None:
        self._metrics = metrics
        self._last = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self._metrics.add(phase, now - self._last)
        self._last = now


class _DelayedOfferStore:
    """Flat preallocated store of in-flight delayed offers.

    One set of parallel arrays (destination, source, height-at-send,
    label-at-send, arrival step) holds every queued offer; a step's
    enqueue is one slice append (growing geometrically, never
    shrinking) and maturation is one mask-select plus compaction, so
    both directions of the delay path are single vectorized merges.
    Append order is preserved, so matured offers reach the max-reduce
    in send order.

    The store is bounded under stepped operation: each step enqueues
    at most ``2 * N`` offers (one pull and one push per successful
    delayed contact) and every offer matures within ``max_delay``
    steps of its send, so a stepping run's live count never exceeds
    ``2 * N * max_delay`` (= :attr:`bound`, pinned under Hypothesis).
    Direct repeated ``_communicate()`` calls at a frozen step count
    can exceed it — nothing matures while the clock stands still — so
    the bound is documented and tested rather than enforced inline.
    """

    __slots__ = ("_dest", "_src", "_hgt", "_lab", "_arrive", "_count", "bound")

    def __init__(self, index_dtype, bound: int) -> None:
        self._dest = np.empty(0, dtype=index_dtype)
        self._src = np.empty(0, dtype=index_dtype)
        self._hgt = np.empty(0, dtype=OFFER_DTYPE)
        self._lab = np.empty(0, dtype=np.int16)
        self._arrive = np.empty(0, dtype=np.int64)
        self._count = 0
        self.bound = bound

    @property
    def count(self) -> int:
        """Number of offers currently in flight."""
        return self._count

    @property
    def capacity(self) -> int:
        """Allocated entry capacity (grows geometrically)."""
        return int(self._dest.size)

    def append(self, dest, src, hgt, lab, arrive) -> None:
        need = self._count + dest.size
        if need > self._dest.size:
            cap = max(1024, 2 * self._dest.size, need)
            for name in ("_dest", "_src", "_hgt", "_lab", "_arrive"):
                old = getattr(self, name)
                grown = np.empty(cap, dtype=old.dtype)
                grown[: self._count] = old[: self._count]
                setattr(self, name, grown)
        sl = slice(self._count, need)
        self._dest[sl] = dest
        self._src[sl] = src
        self._hgt[sl] = hgt
        self._lab[sl] = lab
        self._arrive[sl] = arrive
        self._count = need

    def pop(self, step: int) -> Optional[Tuple[np.ndarray, ...]]:
        """Extract and remove every offer arriving at ``step``."""
        count = self._count
        if count == 0:
            return None
        mature = self._arrive[:count] == step
        if not mature.any():
            return None
        matured = (
            self._dest[:count][mature],
            self._src[:count][mature],
            self._hgt[:count][mature],
            self._lab[:count][mature],
        )
        keep = ~mature
        remaining = int(np.count_nonzero(keep))
        if remaining:
            for name in ("_dest", "_src", "_hgt", "_lab", "_arrive"):
                array = getattr(self, name)
                array[:remaining] = array[:count][keep]
        self._count = remaining
        return matured


class GraphSimulatorVec(_GridEngineBase):
    """CSR sparse-adjacency propagation engine.

    Node state is two flat NumPy arrays (fork id, height); fork ids
    index a small per-fork table (labels, counterfeit flags), so label
    decoding never walks the registry.  Mining and fork bookkeeping
    come from ``_GridEngineBase``; this class supplies CSR partner
    selection (see the module docstring for the draw protocols), the
    buffered max-reduce reconcile, the delayed-offer queue, and flat
    observation views.
    """

    #: Running upper bound on the global chain height.  Heights only
    #: grow through ``_set_cell`` (mining / fork seeding); adoption
    #: copies an existing height.  While the bound fits the absolute
    #: int32 code window the reconcile skips its min/max rebase scans.
    _hmax_track = 0

    #: Whether ``_code32`` / ``_h32`` currently mirror
    #: ``(hgt << bits) | rev`` and ``hgt`` with base 0.  Maintained
    #: incrementally at the height-mutation sites (``_set_cell`` and
    #: the adopt commit) so the reconcile's full re-encode pass is
    #: skipped on steady steps and the adoption mask is an int32
    #: compare.
    _codes_valid = False

    def __init__(
        self,
        config: GraphConfig,
        phase_metrics: Optional["PhaseTimingCollector"] = None,
    ) -> None:
        spec = config.spec
        self.spec = spec
        #: The unpartitioned topology; timeline partition events derive
        #: the active edge set from it (see ``_apply_partition_fraction``).
        self._base_spec = spec
        self._protocol = spec.rng_protocol
        # The stream name is part of the spec so the grid bridge can
        # replay the "grid.vec" draw sequence.  Protocol 2 draws a
        # different sequence, so it gets an explicitly versioned name.
        self.RNG_STREAM = (
            spec.rng_stream if self._protocol == 1 else spec.rng_stream + ".p2"
        )
        # Fork-id tables must exist before the base registers fork A.
        self._fork_ids: Dict[str, int] = {}
        self._id_labels: List[str] = []
        # A + 24 natural labels + B: at most len(_LABELS) + 1 ids ever.
        self._counterfeit_ids = np.zeros(len(self._LABELS) + 1, dtype=bool)
        super().__init__(config, phase_metrics)
        self._rng = self.streams.numpy_stream(self.RNG_STREAM)
        num_nodes = config.num_nodes
        self._num_nodes = num_nodes
        self._lab = np.zeros(num_nodes, dtype=np.int16)
        self._hgt = np.zeros(num_nodes, dtype=OFFER_DTYPE)
        self._src_bits = offer_source_bits(num_nodes)
        self._src_mask = (1 << self._src_bits) - 1
        # Reversed source ids: the low bits of every node's offer code.
        self._rev_ids = (num_nodes - 1) - np.arange(num_nodes, dtype=OFFER_DTYPE)
        self._honest_cells_cache: Optional[np.ndarray] = None
        # Whether this run carries per-edge delays at all.  Decided
        # once from the base spec: a partition may cut every delayed
        # edge, but in-flight offers still mature, so the delay
        # machinery (store, buffers) must keep running once it exists.
        base_delays = spec.edge_delays
        self._has_delay_path = bool(
            base_delays is not None and base_delays.any()
        )
        # Compressed index dtype: int32 indices halve gather/scatter
        # memory traffic whenever node and edge counts allow.  Sized
        # for the base spec; partitions only shrink the edge set.
        compact = max(num_nodes, spec.num_edges) < 2**31
        itype = np.int32 if compact else np.int64
        self._itype = itype
        # Communication buffers, reused every step.  All are
        # node-sized, so they survive edge reloads.
        self._ok_buf = np.empty(num_nodes, dtype=bool)
        self._partner_buf = np.empty(num_nodes, dtype=itype)
        if self._protocol == 2:
            self._u1 = np.empty(num_nodes, dtype=np.float32)
            self._cf = np.empty(num_nodes, dtype=np.float32)
            self._choice_buf = np.empty(num_nodes, dtype=itype)
            self._edge_buf = np.empty(num_nodes, dtype=itype)
        else:
            self._u1 = np.empty(num_nodes, dtype=np.float64)
        self._code64 = np.empty(num_nodes, dtype=OFFER_DTYPE)
        self._best64 = np.empty(num_nodes, dtype=OFFER_DTYPE)
        self._adopt_buf = np.empty(num_nodes, dtype=bool)
        self._push_buf = np.empty(num_nodes, dtype=bool)
        self._use32 = compact and self._src_bits < 31
        if self._use32:
            self._h32 = np.empty(num_nodes, dtype=np.int32)
            self._code32 = np.empty(num_nodes, dtype=np.int32)
            self._best32 = np.empty(num_nodes, dtype=np.int32)
            self._d32 = np.empty(num_nodes, dtype=np.int32)
            self._rev32 = self._rev_ids.astype(np.int32)
            # Largest per-step height spread the rebased int32 code
            # can carry.
            self._spread_cap32 = (1 << (31 - self._src_bits)) - 1
        if self._has_delay_path:
            self._delay_buf = np.empty(num_nodes, dtype=itype)
            self._delayed_buf = np.empty(num_nodes, dtype=bool)
            self._newlab_buf = np.empty(num_nodes, dtype=np.int16)
            max_delay = int(base_delays.max())
            self._store = _DelayedOfferStore(
                itype, bound=2 * num_nodes * max_delay
            )
        self._load_spec_edges(spec)

    def _load_spec_edges(self, spec: GraphSpec) -> None:
        """(Re)load every edge-dependent array from ``spec``.

        Called once at construction with the base spec, and again by
        timeline partition events with a cut edge set.  Node-sized
        state (heights, labels, draw buffers, the delayed-offer store)
        is untouched, so in-flight delayed offers survive a partition —
        a block already in transit is delivered even if the link that
        carried it has since been cut.
        """
        self._active_spec = spec
        self._indptr = spec.indptr
        self._indices = spec.indices
        self._num_edges = spec.num_edges
        self._row_start = spec.indptr[:-1]
        self._degrees = spec.degrees
        self._regular_degree = spec.regular_degree
        self._choice_high = np.maximum(self._degrees, 1)
        self._active = self._degrees > 0
        self._all_active = bool(self._active.all())
        edge_delays = spec.edge_delays
        if edge_delays is not None and not edge_delays.any():
            edge_delays = None  # all-zero delays: same-step path
        if edge_delays is None and self._has_delay_path:
            # A delayed run whose active edge set lost every delayed
            # edge still matures queued offers, so the delay path must
            # stay live: zero-delay edges keep the store draining.
            edge_delays = np.zeros(self._num_edges, dtype=np.int64)
        self._edge_delays = edge_delays
        itype = self._itype
        self._indices_c = self._indices.astype(itype, copy=False)
        if self._protocol == 2:
            self._refresh_deg_scale()
            self._choice_cap = np.maximum(self._degrees - 1, 0).astype(itype)
            # Row starts clamped into the edge range: a degree-0 tail
            # node's row start equals num_edges, and its (masked-out)
            # dummy edge index must still be gatherable.
            self._row_start_c = np.minimum(
                self._row_start, max(self._num_edges - 1, 0)
            ).astype(itype)
        if self._edge_delays is not None:
            self._edge_delays_c = self._edge_delays.astype(itype, copy=False)

    def _refresh_deg_scale(self) -> None:
        """Protocol 2's conditional-uniform scale, for the active
        degrees and the *current* failure rate:
        ``(u - f) * degree / (1 - f)`` maps each surviving draw back
        onto ``[0, degree)``."""
        survive = 1.0 - self.config.failure_rate
        self._deg_scale = (
            self._degrees / survive if survive > 0.0 else self._degrees * 0.0
        ).astype(np.float32)

    # ------------------------------------------------------------------
    # Timeline hooks
    # ------------------------------------------------------------------
    def _on_config_replaced(self, old, new) -> None:
        if self._protocol == 2 and old.failure_rate != new.failure_rate:
            self._refresh_deg_scale()

    def _apply_partition_fraction(self, fraction: float) -> None:
        """Partition off the lowest-index ``round(fraction * N)`` nodes.

        The partition mask is deterministic in the fraction alone, so a
        timeline event is one number; scenarios that need a specific
        cut (e.g. a measured hijack) place their attacker/observers by
        node index instead.  Fraction 0 restores the base edge set.
        """
        k = int(round(fraction * self._num_nodes))
        if k <= 0:
            self._load_spec_edges(self._base_spec)
            return
        mask = np.zeros(self._num_nodes, dtype=bool)
        mask[:k] = True
        self._load_spec_edges(self._base_spec.partitioned(mask))

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def _attacker_index(self, config) -> int:
        return config.attacker_node

    def _on_fork_registered(self, fork: ForkChain) -> None:
        fid = self._fork_ids.get(fork.label)
        if fid is None:
            fid = len(self._id_labels)
            self._fork_ids[fork.label] = fid
            self._id_labels.append(fork.label)
        # Recycled labels reuse their id; the flag tracks the new fork.
        self._counterfeit_ids[fid] = fork.counterfeit

    def _rand_below(self, upper: int) -> int:
        return int(self._rng.integers(upper))

    def _label_at(self, idx: int) -> str:
        return self._id_labels[int(self._lab[idx])]

    def _height_at(self, idx: int) -> int:
        return int(self._hgt[idx])

    def _set_cell(self, idx: int, label: str, height: int) -> None:
        self._lab[idx] = self._fork_ids[label]
        self._hgt[idx] = height
        if height > self._hmax_track:
            self._hmax_track = height
        if self._codes_valid:
            if height <= self._spread_cap32:
                self._h32[idx] = height
                self._code32[idx] = (height << self._src_bits) | int(
                    self._rev32[idx]
                )
            else:
                self._codes_valid = False

    def _honest_count(self) -> int:
        honest = ~self._counterfeit_ids[self._lab]
        honest[self._attacker_idx] = False
        self._honest_cells_cache = np.flatnonzero(honest)
        return int(self._honest_cells_cache.size)

    def _honest_cell_at(self, k: int) -> int:
        return int(self._honest_cells_cache[k])

    def _holder_cells(self, fork: ForkChain) -> List[int]:
        fid = self._fork_ids[fork.label]
        holders = np.flatnonzero(self._lab == fid)
        holders = holders[holders != self._attacker_idx]
        k = self.HONEST_SEED_CELLS
        if holders.size > k:
            # Top nodes by height, ties toward the lowest node index:
            # the offer code (height << bits | reversed index) orders
            # exactly that way, so a bounded argpartition selects the
            # same nodes the historical full lexsort did without
            # sorting all holders.
            codes = (self._hgt[holders] << self._src_bits) | self._rev_ids[holders]
            top = np.argpartition(codes, holders.size - k)[holders.size - k :]
            top = top[np.argsort(-codes[top], kind="stable")]
            holders = holders[top]
        return [int(idx) for idx in holders]  # repro-lint: disable=RPL311 holders is sliced to HONEST_SEED_CELLS (3) above

    def _live_labels(self) -> Set[str]:
        counts = np.bincount(self._lab, minlength=len(self._id_labels))
        return {self._id_labels[i] for i in np.flatnonzero(counts)}  # repro-lint: disable=RPL311 label-count scale (few dozen forks), not node scale

    def _random_seed_cell(self) -> int:
        grid_size = self.spec.grid_size
        if grid_size is not None:
            # Grid bridge: replay the two-draw row/column protocol.
            row = self._rand_below(grid_size)
            col = self._rand_below(grid_size)
            return row * grid_size + col
        return self._rand_below(self._num_nodes)

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def _draw_choices(self) -> np.ndarray:
        degree = self._regular_degree
        if degree is not None:
            return self._rng.integers(0, degree, size=self._num_nodes)
        return self._rng.integers(0, self._choice_high)

    def _communicate(self) -> None:
        """One synchronous CSR communication step.

        The step's offers (pull: the chosen partner's view; push: the
        chooser's view to its partner) are destination-grouped through
        a single indexed max-reduce pass over compressed offer codes;
        every intermediate lives in a buffer allocated once in
        ``__init__``.  Matured delayed offers join the same batch, so
        delivery is one merge.  When a phase collector is attached the
        step reports its sub-phases (``communicate.draw`` /
        ``.queue`` / ``.reconcile`` / ``.adopt``) so regressions
        localize to the stage that moved.

        Protocol 2 fast-forwards quiesced steps: when no node can
        possibly adopt (every non-pinned node already sits at the
        global maximum height, so every offer — same-step or queued —
        carries a height no greater than its receiver's), the step
        draws nothing and sends nothing; queued offers still mature
        and are discarded.  State-wise this is exactly what a full
        step would compute.  The skip is part of the versioned ``.p2``
        draw sequence — protocol 1 never skips.
        """
        metrics = self._phase_metrics
        clock = None if metrics is None else _PhaseLapper(metrics)
        if self._protocol == 2 and self._comm_quiesced():
            if self._edge_delays is not None:
                self._store.pop(self.step_count)
            if clock is not None:
                clock.lap("communicate.draw")
            return
        edge = self._comm_draw()
        if clock is not None:
            clock.lap("communicate.draw")
        if edge is None:
            return
        ok = self._ok_buf
        partner = self._partner_buf
        matured = None
        if self._edge_delays is not None:
            delay = self._delay_buf
            np.take(self._edge_delays_c, edge, out=delay)
            np.multiply(delay, ok, out=delay)
            delayed = self._delayed_buf
            np.greater(delay, 0, out=delayed)
            if delayed.any():
                senders = np.flatnonzero(delayed)
                other = partner[senders]
                heights = self._hgt
                labels = self._lab
                arrive = self.step_count + delay[senders].astype(np.int64)
                # Pull offers, then push offers, in send order (see
                # _DelayedOfferStore).
                self._store.append(
                    np.concatenate([senders, other]),
                    np.concatenate([other, senders]),
                    np.concatenate([heights[other], heights[senders]]),
                    np.concatenate([labels[other], labels[senders]]),
                    np.concatenate([arrive, arrive]),
                )
                ok &= ~delayed
            matured = self._store.pop(self.step_count)
            if clock is not None:
                clock.lap("communicate.queue")
        best, base = self._comm_reconcile(ok, partner, matured)
        if clock is not None:
            clock.lap("communicate.reconcile")
        self._comm_adopt(best, base, matured)
        if clock is not None:
            clock.lap("communicate.adopt")

    def _comm_quiesced(self) -> bool:
        """Whether no communication step could change any node's state.

        True when every node a reconcile may update sits at the global
        maximum height: adoption requires a *strictly greater* height,
        offers never carry more than the global maximum, and heights
        never decrease — so neither this step's contacts nor any
        queued offer can adopt.  The pinned attacker is exempt from
        the uniform-height requirement (it never adopts); before the
        attack starts it is an ordinary node and must be included.
        """
        heights = self._h32 if self._codes_valid else self._hgt
        hmax = heights.max()
        if self.attacker_fork is None:
            return bool(heights.min() == hmax)
        att = self._attacker_idx
        a = heights[att]  # scalar copy; a <= hmax by construction
        heights[att] = hmax
        hmin = heights.min()
        heights[att] = a
        return bool(hmin == hmax)

    def _comm_draw(self) -> Optional[np.ndarray]:
        """Fill the failure/partner buffers for this step's contacts.

        Returns the per-node edge-index array (``None`` on an edgeless
        graph, after consuming the step's draws so the per-step
        protocol stays uniform).
        """
        rng = self._rng
        ok = self._ok_buf
        if self._protocol == 2:
            rng.random(out=self._u1, dtype=np.float32)
            np.greater_equal(self._u1, self.config.failure_rate, out=ok)
            if not self._all_active:
                ok &= self._active
            if self._num_edges == 0:
                return None
            # The surviving tail of the same uniform picks the
            # neighbour: conditioned on u >= f, (u - f) / (1 - f) is
            # again Uniform[0, 1), so floor of it times the degree is
            # the choice.  Clamp to [0, degree - 1]: float32 rounding
            # can land exactly on degree, and failed contacts (u < f)
            # produce negative values that must stay gatherable until
            # the ok-mask disposes of them.
            cf = self._cf
            np.subtract(self._u1, np.float32(self.config.failure_rate), out=cf)
            np.multiply(cf, self._deg_scale, out=cf)
            choice = self._choice_buf
            np.copyto(choice, cf, casting="unsafe")
            np.clip(choice, 0, self._choice_cap, out=choice)
            edge = self._edge_buf
            np.add(self._row_start_c, choice, out=edge)
        else:
            rng.random(out=self._u1)
            np.greater_equal(self._u1, self.config.failure_rate, out=ok)
            ok &= self._active
            choice = self._draw_choices()
            if self._num_edges == 0:
                return None
            edge = np.minimum(self._row_start + choice, self._num_edges - 1)
        np.take(self._indices_c, edge, out=self._partner_buf)
        return edge

    def _comm_reconcile(
        self,
        ok: np.ndarray,
        partner: np.ndarray,
        matured: Optional[Tuple[np.ndarray, ...]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Destination-grouped max over this step's offer batch.

        Offer codes are carried in int32 whenever they fit — with base
        0 while the running height bound allows (the steady state, in
        which ``_code32`` persists across steps and is patched
        incrementally at the height-mutation sites instead of being
        re-encoded), else rebased to the step's minimum height; the
        full int64 code is the final fallback.  All paths order offers
        identically, so the choice of width is invisible in
        trajectories.

        The push side scatters only the *outranking* subset — senders
        whose code exceeds their receiver's own code.  A dropped push
        carries a height no greater than its receiver's, so it can
        never adopt; and whenever adoption does happen the winning
        offer outranks the receiver, so it was never dropped and the
        winner (hence the decoded source/label) is identical to the
        unfiltered reduce.  Returns ``(best, base_height)``.
        """
        hgt = self._hgt
        zero = np.int64(0)
        use32 = self._use32
        base = zero
        if use32 and self._hmax_track > self._spread_cap32:
            base = hgt.min()
            high = hgt.max()
            if matured is not None:
                base = min(base, matured[2].min())
                high = max(high, matured[2].max())
            if int(high - base) > self._spread_cap32:
                use32 = False
                base = zero
        if use32:
            if base != 0 or not self._codes_valid:
                np.subtract(hgt, base, out=self._h32, casting="unsafe")
                np.left_shift(self._h32, self._src_bits, out=self._code32)
                np.bitwise_or(self._code32, self._rev32, out=self._code32)
                self._codes_valid = base == 0
            code, best = self._code32, self._best32
        else:
            self._codes_valid = False
            np.left_shift(hgt, self._src_bits, out=self._code64)
            np.bitwise_or(self._code64, self._rev_ids, out=self._code64)
            code, best = self._code64, self._best64
        # Pull side: the partner's offer, zeroed where the contact
        # failed (code 0 decodes to base height and never adopts).
        np.take(code, partner, out=best)
        np.multiply(best, ok, out=best)
        # Push side: destination-grouped max-reduce of the outranking
        # contacts (for an ok sender, best still holds its receiver's
        # unmasked code at this point).
        push = self._push_buf
        np.greater(code, best, out=push)
        push &= ok
        senders = np.flatnonzero(push)
        if senders.size:
            np.maximum.at(best, partner[senders], code[senders])
        if matured is not None:
            np.maximum.at(best, matured[0], self._matured_codes(matured, best.dtype, base))
        return best, base

    def _matured_codes(self, matured, dtype, base) -> np.ndarray:
        """Offer codes of a matured batch, in the step's code width."""
        _, src, height, _ = matured
        codes = ((height - base) << self._src_bits) | (
            (self._num_nodes - 1) - src
        )
        return codes.astype(dtype, copy=False)

    def _comm_adopt(
        self,
        best: np.ndarray,
        base: np.ndarray,
        matured: Optional[Tuple[np.ndarray, ...]],
    ) -> None:
        """Adopt strictly-better offers; matured wins restore at-send
        labels (attacker pinned).

        On the persistent-code fast path the exact adoption mask
        (offer height strictly above the node's) is two int32 passes —
        shift the best codes down to heights and compare against the
        maintained ``_h32`` mirror; only the adopting subset is ever
        decoded.  The fallback decodes through int64 as before.
        """
        adopt = self._adopt_buf
        if self._codes_valid:
            nh32 = self._d32
            np.right_shift(best, self._src_bits, out=nh32)
            np.greater(nh32, self._h32, out=adopt)
        else:
            heights = (best.astype(OFFER_DTYPE, copy=False) >> self._src_bits) + base
            np.greater(heights, self._hgt, out=adopt)
        if self.attacker_fork is not None:
            adopt[self._attacker_idx] = False  # pinned
        adopting = np.flatnonzero(adopt)
        if adopting.size == 0:
            return
        won_best = best[adopting].astype(OFFER_DTYPE, copy=False)
        nh = (won_best >> self._src_bits) + base
        source = (self._num_nodes - 1) - (won_best & self._src_mask)
        new_label = self._lab[source]
        if matured is not None:
            mdest, _, _, mlab = matured
            won = self._matured_codes(matured, best.dtype, base) == best[mdest]
            won &= adopt[mdest]
            if won.any():
                # Route the override through a full-length scratch so
                # matured winners land on their adopting destinations.
                scratch = self._newlab_buf
                scratch[adopting] = new_label
                scratch[mdest[won]] = mlab[won]
                new_label = scratch[adopting]
        self._lab[adopting] = new_label
        self._hgt[adopting] = nh
        if self._codes_valid:
            # Patch the persistent mirrors: new height, own source bits.
            self._h32[adopting] = nh32[adopting]
            self._code32[adopting] = (
                best[adopting] & ~np.int32(self._src_mask)
            ) | self._rev32[adopting]

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def labels(self) -> List[str]:
        """Per-node fork labels, in node-index order."""
        id_labels = self._id_labels
        return [id_labels[i] for i in self._lab.tolist()]

    @property
    def heights(self) -> List[int]:
        """Per-node chain heights, in node-index order."""
        return self._hgt.tolist()

    def snapshot(self) -> GraphSnapshot:
        return GraphSnapshot(
            step=self.step_count,
            labels=tuple(self.labels),
            heights=tuple(self.heights),
        )

    def fork_fractions(self) -> Dict[str, float]:
        counts = np.bincount(self._lab, minlength=len(self._id_labels))
        total = self.config.num_nodes
        return {
            self._id_labels[i]: int(counts[i]) / total
            for i in np.flatnonzero(counts).tolist()
        }

    def synced_fraction(self) -> float:
        """Fraction of nodes at the global maximum height."""
        at_tip = int(np.count_nonzero(self._hgt == self._hgt.max()))
        return at_tip / self.config.num_nodes

    def partition_fractions(self, mask: Sequence[bool]) -> Dict[str, float]:
        """Fork fractions restricted to the masked nodes."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._num_nodes,):
            raise ConfigurationError(
                "one mask entry per node required",
                nodes=self._num_nodes,
                mask=int(mask.size),
            )
        total = int(mask.sum())
        if total == 0:
            return {}
        counts = np.bincount(self._lab[mask], minlength=len(self._id_labels))
        return {
            self._id_labels[i]: int(counts[i]) / total
            for i in np.flatnonzero(counts).tolist()
        }
