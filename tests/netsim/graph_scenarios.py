"""Shared scenario definitions for the graph-engine golden suite.

Five scenarios cover the engine's qualitatively distinct regimes:

- ``grid_bridge`` — a 12x12 grid through the exact-equivalence CSR
  bridge (same physics as the ``early_attack`` grid golden scenario);
- ``star`` — an extreme-degree-skew hub-and-spoke graph (hub degree
  N-1, leaf degree 1), stressing the irregular choice protocol;
- ``two_cluster`` — a synthetic graph cut into two isolated halves by
  a partition mask, with the attacker confined to one side;
- ``as_topology`` — a small AS-level graph built from the calibrated
  paper topology via :meth:`GraphSpec.from_topology`;
- ``delayed_edges`` — a synthetic graph with per-edge delay ticks,
  exercising the matured-offer queue.

Both the golden test (``test_graph_golden.py``) and the regeneration
script (``regen_golden_graph.py``) build configs from this module, so
a captured fixture always matches the scenario definitions.  Each
scenario also records a digest of its CSR arrays: if an adapter
changes construction, the golden test reports *spec drift* (the
topology moved) separately from *trajectory drift* (the engine's
draws or semantics moved).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np

from repro.netsim.graph import (
    GraphConfig,
    GraphSimulatorVec,
    GraphSpec,
    graph_config_from_grid,
)
from repro.netsim.grid import GridConfig
from repro.topology.builder import PaperTopologyBuilder

FIXTURE_NAME = "golden_graph.json"

#: Per-scenario observation cadence and horizon.
SAMPLE_EVERY = 25
HORIZON = 400


def _star_spec(num_leaves: int = 63) -> GraphSpec:
    num_nodes = num_leaves + 1
    indices = list(range(1, num_nodes))  # hub row: every leaf
    indptr = [0, len(indices)]
    for _ in range(num_leaves):  # each leaf: the hub only
        indices.append(0)
        indptr.append(len(indices))
    return GraphSpec(indptr=indptr, indices=indices)


def _two_cluster_spec() -> GraphSpec:
    spec = GraphSpec.power_law(120, seed=21)
    mask = np.arange(spec.num_nodes) < spec.num_nodes // 2
    return spec.partitioned(mask)


def _as_topology_spec() -> GraphSpec:
    topology = PaperTopologyBuilder(seed=3, scale=0.05).build()
    return GraphSpec.from_topology(topology, peers_per_node=4, seed=1)


def build_config(name: str) -> GraphConfig:
    """Construct the named scenario's :class:`GraphConfig`."""
    if name == "grid_bridge":
        return graph_config_from_grid(
            GridConfig(
                size=12,
                seed=7,
                failure_rate=0.15,
                steps_per_block=10,
                attacker_share=0.45,
                attacker_cell=(3, 3),
                attack_start_step=0,
                natural_fork_rate=0.25,
            )
        )
    if name == "star":
        return GraphConfig(
            spec=_star_spec(),
            seed=11,
            failure_rate=0.10,
            steps_per_block=8,
            attacker_share=0.35,
            attacker_node=1,
            attack_start_step=60,
            natural_fork_rate=0.20,
        )
    if name == "two_cluster":
        return GraphConfig(
            spec=_two_cluster_spec(),
            seed=5,
            failure_rate=0.10,
            steps_per_block=12,
            attacker_share=0.40,
            attacker_node=3,
            attack_start_step=50,
            natural_fork_rate=0.15,
        )
    if name == "as_topology":
        return GraphConfig(
            spec=_as_topology_spec(),
            seed=7,
            failure_rate=0.10,
            steps_per_block=10,
            attacker_share=0.30,
            attacker_node=0,
            attack_start_step=80,
            natural_fork_rate=0.10,
        )
    if name == "delayed_edges":
        return GraphConfig(
            spec=GraphSpec.power_law(200, max_delay=3, seed=9),
            seed=13,
            failure_rate=0.10,
            steps_per_block=15,
            attacker_share=0.30,
            attacker_node=0,
            attack_start_step=80,
            natural_fork_rate=0.10,
        )
    raise KeyError(name)


SCENARIO_NAMES: Tuple[str, ...] = (
    "grid_bridge",
    "star",
    "two_cluster",
    "as_topology",
    "delayed_edges",
)


def spec_digest(spec: GraphSpec) -> str:
    """Digest of the CSR arrays (topology identity, not engine state)."""
    hasher = hashlib.sha256()
    hasher.update(spec.indptr.tobytes())
    hasher.update(spec.indices.tobytes())
    if spec.edge_delays is not None:
        hasher.update(spec.edge_delays.tobytes())
    return hasher.hexdigest()


def state_digest(sim: GraphSimulatorVec) -> str:
    """Digest of the full final node state (labels + heights)."""
    labels = "".join(sim.labels)
    heights = ",".join(str(h) for h in sim.heights)
    return hashlib.sha256(f"{labels}|{heights}".encode()).hexdigest()


def capture(name: str) -> Dict:
    """Run the named scenario and record its golden observations."""
    config = build_config(name)
    sim = GraphSimulatorVec(config)
    trajectory: Dict[str, Dict[str, float]] = {}
    for step in range(SAMPLE_EVERY, HORIZON + 1, SAMPLE_EVERY):
        sim.run(step - sim.step_count)
        trajectory[str(step)] = sim.fork_fractions()
    return {
        "spec_sha256": spec_digest(config.spec),
        "num_nodes": config.num_nodes,
        "num_edges": config.spec.num_edges,
        "sample_every": SAMPLE_EVERY,
        "horizon": HORIZON,
        "trajectory": trajectory,
        "fork_births": sim.fork_births,
        "fork_deaths": sim.fork_deaths,
        "fork_lifetimes_blocks": sim.fork_lifetimes_in_blocks(),
        "synced_fraction": sim.synced_fraction(),
        "attacker_fraction": sim.attacker_fraction(),
        "final_state_sha256": state_digest(sim),
    }
