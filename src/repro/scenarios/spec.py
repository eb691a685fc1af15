"""Declarative, hashable scenario specifications.

A :class:`ScenarioSpec` is the sweep driver's unit of work: one frozen,
canonically-normalized description of a full attack scenario — the
topology and engine, the attacker hash-rate schedule, the BGP-hijack /
partition timeline, the churn (failure-rate) regime, and the
unreachable-peer population — that

- compiles to a ready engine via :meth:`ScenarioSpec.build` (grid
  configs through :func:`~repro.netsim.grid.make_simulator`, power-law
  graphs through :meth:`~repro.netsim.graph.GraphSpec.power_law`, with
  a :class:`~repro.netsim.timeline.Timeline` attached);
- serializes to a canonical JSON dict (:meth:`to_dict` /
  :meth:`from_dict`), so specs travel through trial params and spec
  files unchanged;
- hashes to a stable content digest (:meth:`digest`) that the sweep
  driver folds into :class:`~repro.parallel.cache.ResultCache` keys —
  two specs differing in any field can never share a cache entry.

Normalization happens at construction: schedules are sorted and
deduplicated (conflicting same-step entries are rejected through the
timeline build), so two differently-written but equivalent specs have
equal digests.  :func:`run_scenario` is the module-level worker body:
spec + seed in, a flat deterministic summary dict out — no wall-clock,
no environment, nothing host-dependent.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..netsim.graph import GraphConfig, GraphSpec, RNG_PROTOCOLS
from ..netsim.grid import ENGINES, GridConfig, make_simulator
from ..netsim.latency import DELAY_MODELS
from ..netsim.timeline import Timeline

__all__ = [
    "SCENARIO_TOPOLOGIES",
    "ScenarioSpec",
    "run_scenario",
    "scenario_summary_keys",
]

#: Accepted ``ScenarioSpec.topology`` values: ``"grid"`` is the paper's
#: square grid (Figure 7), ``"power_law"`` the degree-calibrated
#: synthetic topology.
SCENARIO_TOPOLOGIES = ("grid", "power_law")

#: Keys of the summary dict :func:`run_scenario` returns, in order.
_SUMMARY_KEYS = (
    "spec_digest",
    "seed",
    "steps",
    "peak_attacker_fraction",
    "final_attacker_fraction",
    "final_main_fraction",
    "final_synced_fraction",
    "final_height",
    "forks_born",
    "forks_dead",
    "timeline_events",
)


def scenario_summary_keys() -> Tuple[str, ...]:
    """Keys every :func:`run_scenario` summary carries (schema pin)."""
    return _SUMMARY_KEYS


def _norm_schedule(entries) -> Tuple[Tuple[int, float], ...]:
    normalized = set()
    for entry in entries:
        step, value = entry
        normalized.add((int(step), float(value)))
    return tuple(sorted(normalized))


def _norm_partitions(entries) -> Tuple[Tuple[int, int, float], ...]:
    normalized = set()
    for entry in entries:
        start, end, fraction = entry
        normalized.add((int(start), int(end), float(fraction)))
    return tuple(sorted(normalized))


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative attack scenario (see the module docstring).

    Topology / engine:
        topology: ``"grid"`` or ``"power_law"``.
        size: Grid edge length (grid topology only; ``num_nodes`` is
            then ``size * size`` and must stay ``None``).
        num_nodes: Node count (power-law topology only).
        base_degree / tail_alpha / max_delay / rng_protocol: Power-law
            construction knobs (see
            :meth:`~repro.netsim.graph.GraphSpec.power_law`).
        engine: ``"auto"``, ``"scalar"``, or ``"graph"``
            (power-law topologies accept only ``"auto"``/``"graph"``).
        delay_model: Optional calibrated delay-model name from
            :data:`~repro.netsim.latency.DELAY_MODELS`; requires graph
            semantics (power-law topology, or a grid bridged with
            ``engine="graph"``).

    Simulation regime:
        steps: Communication steps to run.
        steps_per_block / failure_rate / natural_fork_rate /
        attacker_share / attacker_node / attack_start_step: Engine
            config fields (the attacker node indexes row-major on a
            grid).
        sample_every: Steps between peak-fraction samples.

    Timelines (tick-boundary changes; see
    :mod:`repro.netsim.timeline`):
        hash_schedule: ``(step, attacker_share)`` changepoints.
        failure_schedule: ``(step, failure_rate)`` changepoints.
        partitions: ``(start, end, fraction)`` windows cutting the
            lowest-index ``fraction`` of nodes off the graph (graph
            semantics required).

    Populations:
        unreachable_fraction: Fraction of nodes (the highest-index
            ones, disjoint from partition masks) that accept no
            inbound edges — the paper's §III unreachable majority
            (power-law topology only).
    """

    topology: str = "grid"
    size: Optional[int] = None
    num_nodes: Optional[int] = None
    base_degree: int = 8
    tail_alpha: float = 2.0
    max_delay: int = 0
    rng_protocol: int = 1
    engine: str = "auto"
    delay_model: Optional[str] = None
    steps: int = 100
    steps_per_block: int = 50
    failure_rate: float = 0.10
    natural_fork_rate: float = 0.10
    attacker_share: float = 0.30
    attacker_node: int = 0
    attack_start_step: int = 0
    sample_every: int = 10
    hash_schedule: Tuple[Tuple[int, float], ...] = ()
    failure_schedule: Tuple[Tuple[int, float], ...] = ()
    partitions: Tuple[Tuple[int, int, float], ...] = ()
    unreachable_fraction: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "hash_schedule", _norm_schedule(self.hash_schedule)
        )
        object.__setattr__(
            self, "failure_schedule", _norm_schedule(self.failure_schedule)
        )
        object.__setattr__(
            self, "partitions", _norm_partitions(self.partitions)
        )
        if self.topology not in SCENARIO_TOPOLOGIES:
            raise ConfigurationError(
                "unknown topology",
                topology=self.topology,
                choices=SCENARIO_TOPOLOGIES,
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                "unknown engine", engine=self.engine, choices=ENGINES
            )
        if self.rng_protocol not in RNG_PROTOCOLS:
            raise ConfigurationError(
                "unknown rng_protocol", protocol=self.rng_protocol
            )
        if self.topology == "grid":
            if self.size is None or self.size < 2:
                raise ConfigurationError(
                    "grid topology requires size >= 2", size=self.size
                )
            if self.num_nodes is not None:
                raise ConfigurationError(
                    "grid topology derives num_nodes from size",
                    num_nodes=self.num_nodes,
                )
            if self.rng_protocol != 1:
                raise ConfigurationError(
                    "grid topologies require rng_protocol 1",
                    protocol=self.rng_protocol,
                )
        else:
            if self.num_nodes is None or self.num_nodes < 2:
                raise ConfigurationError(
                    "power_law topology requires num_nodes >= 2",
                    num_nodes=self.num_nodes,
                )
            if self.size is not None:
                raise ConfigurationError(
                    "power_law topology takes num_nodes, not size",
                    size=self.size,
                )
            if self.engine not in ("auto", "graph"):
                raise ConfigurationError(
                    "power_law topologies run on the graph engine",
                    engine=self.engine,
                    choices=("auto", "graph"),
                )
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1", steps=self.steps)
        if self.sample_every < 1:
            raise ConfigurationError(
                "sample_every must be >= 1", sample_every=self.sample_every
            )
        if not 0 <= self.attacker_node < self.total_nodes:
            raise ConfigurationError(
                "attacker_node outside the topology",
                node=self.attacker_node,
                num_nodes=self.total_nodes,
            )
        if not 0.0 <= self.unreachable_fraction < 1.0:
            raise ConfigurationError(
                "unreachable_fraction in [0,1)",
                fraction=self.unreachable_fraction,
            )
        graph_semantics = self.topology == "power_law" or self.engine == "graph"
        if self.delay_model is not None:
            if self.delay_model not in DELAY_MODELS:
                raise ConfigurationError(
                    "unknown delay model",
                    delay_model=self.delay_model,
                    choices=tuple(sorted(DELAY_MODELS)),
                )
            if not graph_semantics:
                raise ConfigurationError(
                    "delay models require the graph engine",
                    topology=self.topology,
                    engine=self.engine,
                )
            if self.max_delay > 0:
                raise ConfigurationError(
                    "max_delay and delay_model are mutually exclusive",
                    max_delay=self.max_delay,
                )
        if self.max_delay and self.topology != "power_law":
            raise ConfigurationError(
                "max_delay is a power_law construction knob",
                topology=self.topology,
            )
        if self.partitions and not graph_semantics:
            raise ConfigurationError(
                "partition timelines require the graph engine",
                topology=self.topology,
                engine=self.engine,
            )
        if self.unreachable_fraction and self.topology != "power_law":
            raise ConfigurationError(
                "unreachable populations require the power_law topology",
                topology=self.topology,
            )
        # Build the timeline once to validate schedules and windows
        # (range checks, same-step conflicts) at construction time.
        self.timeline()

    # ------------------------------------------------------------------
    @property
    def total_nodes(self) -> int:
        """Node count regardless of topology kind."""
        if self.topology == "grid":
            return self.size * self.size
        return self.num_nodes

    def timeline(self) -> Timeline:
        """The spec's schedules compiled to a normalized timeline."""
        return Timeline.from_schedules(
            hash_schedule=self.hash_schedule,
            failure_schedule=self.failure_schedule,
            partitions=self.partitions,
        )

    # ------------------------------------------------------------------
    # Canonical serialization and content digest
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Canonical plain-JSON dict (tuples become lists)."""
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [list(entry) for entry in value]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                "unknown ScenarioSpec fields", fields=sorted(unknown)
            )
        kwargs = dict(data)
        for name in ("hash_schedule", "failure_schedule", "partitions"):
            if name in kwargs:
                kwargs[name] = tuple(tuple(entry) for entry in kwargs[name])
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """The canonical serialized form the digest is computed over."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """Stable content digest over every field (hex sha256)."""
        return self.digest_of(self.canonical_json())

    @staticmethod
    def digest_of(canonical: str) -> str:
        """:meth:`digest` from an already-serialized :meth:`canonical_json`."""
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def build(self, seed: int):
        """Compile to a ready engine, timeline attached, under ``seed``."""
        timeline = self.timeline()
        if self.topology == "grid":
            row, col = divmod(self.attacker_node, self.size)
            config = GridConfig(
                size=self.size,
                failure_rate=self.failure_rate,
                steps_per_block=self.steps_per_block,
                attacker_share=self.attacker_share,
                attacker_cell=(row, col),
                attack_start_step=self.attack_start_step,
                natural_fork_rate=self.natural_fork_rate,
                seed=seed,
            )
            sim = make_simulator(
                config, engine=self.engine, delay_model=self.delay_model
            )
        else:
            spec = GraphSpec.power_law(
                self.num_nodes,
                base_degree=self.base_degree,
                tail_alpha=self.tail_alpha,
                max_delay=self.max_delay,
                seed=seed,
                delay_model=(
                    DELAY_MODELS[self.delay_model]
                    if self.delay_model is not None
                    else None
                ),
                rng_protocol=self.rng_protocol,
            )
            if self.unreachable_fraction:
                k = int(round(self.unreachable_fraction * self.num_nodes))
                if k > 0:
                    mask = np.zeros(self.num_nodes, dtype=bool)
                    mask[self.num_nodes - k :] = True
                    spec = spec.unreachable(mask)
            config = GraphConfig(
                spec=spec,
                failure_rate=self.failure_rate,
                steps_per_block=self.steps_per_block,
                attacker_share=self.attacker_share,
                attacker_node=self.attacker_node,
                attack_start_step=self.attack_start_step,
                natural_fork_rate=self.natural_fork_rate,
                seed=seed,
            )
            # The delay model (if any) is already woven into the spec
            # above, so it must not be passed again here.
            sim = make_simulator(config, engine=self.engine)
        if timeline:
            sim.attach_timeline(timeline)
        return sim


def run_scenario(spec: ScenarioSpec, seed: int = 0) -> Dict[str, object]:
    """Run ``spec`` under ``seed`` and summarize it deterministically.

    The summary (keys pinned by :func:`scenario_summary_keys`) carries
    only simulation state — fork fractions, heights, fork counts —
    never wall-clock or host facts, so identical (spec, seed) pairs
    summarize bit-identically on any machine and under any ``jobs=N``
    fan-out.  The peak attacker fraction is sampled every
    ``spec.sample_every`` steps (and at the final step).
    """
    sim = spec.build(seed)
    peak = 0.0
    done = 0
    while done < spec.steps:
        chunk = min(spec.sample_every, spec.steps - done)
        sim.run(chunk)
        done += chunk
        fraction = sim.attacker_fraction()
        if fraction > peak:
            peak = fraction
    heights = sim.heights
    if heights and isinstance(heights[0], list):
        final_height = max(max(row) for row in heights)
    else:
        final_height = max(heights)
    return {
        "spec_digest": spec.digest(),
        "seed": int(seed),
        "steps": int(spec.steps),
        "peak_attacker_fraction": float(peak),
        "final_attacker_fraction": float(sim.attacker_fraction()),
        "final_main_fraction": float(sim.fork_fractions().get("A", 0.0)),
        "final_synced_fraction": float(sim.synced_fraction()),
        "final_height": int(final_height),
        "forks_born": int(len(sim.fork_births)),
        "forks_dead": int(len(sim.fork_deaths)),
        "timeline_events": int(len(sim.timeline_fired)),
    }
