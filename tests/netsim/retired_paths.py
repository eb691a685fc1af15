"""Digests of the retired bit-identical engine paths.

Two suites compared pairs of engine paths that replay each other bit
for bit:

- ``TestGridBridgeBitIdentity`` (``test_graph_vec.py``): the
  vectorized grid engine ``GridSimulatorVec`` against the
  :meth:`GraphSpec.from_grid` bridge, 8 seeds x 4 checkpoints;
- ``TestCrossKernelBitIdentity`` (``test_graph_kernels.py``): the
  allocating ``scatter`` reconcile kernel against the buffered
  ``edge`` kernel, on 16 delayed-edge seeds, 16 partition-mask seeds,
  a calibrated-delay config, a protocol-2 delayed config and the five
  golden graph scenarios.

Each pair kept one survivor (the bridge and the edge kernel); the
vectorized grid engine and the scatter kernel were deleted.  This
module defines every compared config and records, at every checkpoint
the suites compared, one digest of the full observation surface: per
node labels and heights, fork fractions, fork births/deaths/lifetimes,
synced and attacker fractions.  ``fixtures/retired_paths.json`` was
captured while both paths of each pair still existed, by a capture
that asserted they agreed, so the survivor is checked against what
both produced.  Regenerating it now re-records the survivor alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.netsim.graph import (
    GraphConfig,
    GraphSimulatorVec,
    GraphSpec,
    graph_config_from_grid,
)
from repro.netsim.grid import GridConfig
from repro.netsim.latency import BITCOIN_PROPAGATION_2019

from . import graph_scenarios

FIXTURE = Path(__file__).parent / "fixtures" / "retired_paths.json"


def grid_config(seed: int, size: int = 15) -> GridConfig:
    """The Figure 7 attack scenario on a small grid."""
    return GridConfig(
        size=size,
        seed=seed,
        failure_rate=0.10,
        steps_per_block=20,
        attacker_share=0.30,
        attacker_cell=(7 % size, 7 % size),
        attack_start_step=100,
    )


def delayed_config(seed: int) -> GraphConfig:
    return GraphConfig(
        spec=GraphSpec.power_law(96, max_delay=3, seed=17),
        seed=seed,
        failure_rate=0.12,
        steps_per_block=10,
        attacker_share=0.35,
        attacker_node=2,
        attack_start_step=40,
        natural_fork_rate=0.15,
    )


def partitioned_config(seed: int) -> GraphConfig:
    spec = GraphSpec.power_law(96, seed=23)
    mask = np.arange(spec.num_nodes) % 2 == 0
    return GraphConfig(
        spec=spec.partitioned(mask),
        seed=seed,
        failure_rate=0.10,
        steps_per_block=12,
        attacker_share=0.40,
        attacker_node=1,
        attack_start_step=30,
        natural_fork_rate=0.10,
    )


def calibrated_delay_config(seed: int) -> GraphConfig:
    spec = GraphSpec.power_law(
        128, seed=3, delay_model=BITCOIN_PROPAGATION_2019, tick_seconds=1.0
    )
    return dataclasses.replace(delayed_config(seed), spec=spec)


def protocol2_config(seed: int) -> GraphConfig:
    spec = GraphSpec.power_law(128, max_delay=2, seed=6, rng_protocol=2)
    return dataclasses.replace(delayed_config(seed), spec=spec)


class Case(NamedTuple):
    """One compared config family: builder, seeds, checkpoints."""

    build: Callable[[int], object]
    seeds: Tuple[int, ...]
    checkpoints: Tuple[int, ...]


#: Cross-kernel checkpoints: 120 steps in four equal chunks.
_KERNEL_STEPS = (30, 60, 90, 120)
_GOLDEN_STEPS = tuple(
    graph_scenarios.HORIZON * k // 4 for k in range(1, 5)
)

CASES: Dict[str, Case] = {
    "grid_bridge": Case(grid_config, tuple(range(8)), (50, 150, 300, 400)),
    "delayed_edges": Case(delayed_config, tuple(range(16)), _KERNEL_STEPS),
    "partition_mask": Case(partitioned_config, tuple(range(16)), _KERNEL_STEPS),
    "calibrated_delay": Case(calibrated_delay_config, (4,), _KERNEL_STEPS),
    "protocol2_delayed": Case(protocol2_config, (8,), _KERNEL_STEPS),
}
for _name in graph_scenarios.SCENARIO_NAMES:
    # Golden scenarios carry a fixed seed in their config.
    CASES[f"golden_{_name}"] = Case(
        lambda _seed, name=_name: graph_scenarios.build_config(name),
        (0,),
        _GOLDEN_STEPS,
    )


def observation_digest(sim) -> str:
    """Digest of everything the bit-identity suites compared."""
    payload = {
        "step": sim.step_count,
        "labels": sim.labels,
        "heights": sim.heights,
        "fractions": sorted(sim.fork_fractions().items()),
        "births": sorted(sim.fork_births.items()),
        "deaths": sorted(sim.fork_deaths.items()),
        "lifetimes": sorted(sim.fork_lifetimes_in_blocks().items()),
        "synced": sim.synced_fraction(),
        "attacker": sim.attacker_fraction(),
    }
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def survivor(name: str, seed: int) -> GraphSimulatorVec:
    """The surviving engine path for ``name`` (bridge or edge kernel)."""
    config = CASES[name].build(seed)
    if isinstance(config, GridConfig):
        config = graph_config_from_grid(config)
    return GraphSimulatorVec(config)


def trace(sim, checkpoints: Sequence[int]) -> List[str]:
    """Run ``sim`` to each checkpoint and digest its observations."""
    digests = []
    for step in checkpoints:
        sim.run(step - sim.step_count)
        digests.append(observation_digest(sim))
    return digests


def assert_replays(name: str, seed: int) -> None:
    """The survivor reproduces the captured digests at every checkpoint."""
    checkpoints = CASES[name].checkpoints
    expected = json.loads(FIXTURE.read_text())[name][str(seed)]
    got = trace(survivor(name, seed), checkpoints)
    for step, want, have in zip(checkpoints, expected, got):
        assert have == want, (
            f"{name} seed {seed} diverged from the captured trajectory "
            f"at step {step}"
        )


def capture() -> Dict[str, Dict[str, List[str]]]:
    """Digest every case on the surviving path."""
    return {
        name: {
            str(seed): trace(survivor(name, seed), case.checkpoints)
            for seed in case.seeds
        }
        for name, case in CASES.items()
    }
