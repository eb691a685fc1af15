"""The vectorized engine on a grid: determinism, API parity, engine
selection, and statistical equivalence with the scalar reference.

Grids of size >= ``VEC_SIZE_THRESHOLD`` (and any grid under
``engine="graph"``) run on :class:`GraphSimulatorVec` through the
``GraphSpec.from_grid`` bridge.  The bridge follows its own documented
RNG protocol (the ``"grid.vec"`` NumPy stream), so it is *not*
draw-compatible with ``GridSimulator`` — the contract is instead:

- deterministic per seed: identical snapshots for identical configs,
  regardless of worker count;
- the same public API and invariants as the scalar engine, with flat
  per-node views instead of grid rows;
- the same physics: fork-B peak capture, final chain-A recovery, and
  natural-fork lifetimes agree in distribution over many seeds.
"""

from __future__ import annotations

import statistics

import pytest

from repro.errors import ConfigurationError
from repro.netsim.graph import GraphSimulatorVec
from repro.netsim.grid import (
    ENGINES,
    GridConfig,
    GridSimulator,
    VEC_SIZE_THRESHOLD,
    make_simulator,
)
from repro.parallel import Trial, TrialEngine

from .retired_paths import grid_config as _attack_config


def _bridge(config: GridConfig) -> GraphSimulatorVec:
    return make_simulator(config, engine="graph")


def _bridge_trial(trial: Trial):
    """Module-level (hence picklable) trial: one bridged grid run.

    Built through ``make_simulator`` (the grid entry point), unlike the
    graph-engine fan-out test, which builds ``GraphSimulatorVec`` from
    a ``GraphConfig`` directly.
    """
    sim = _bridge(_attack_config(trial.seed, trial.param("size")))
    sim.run(300)
    snap = sim.snapshot()
    return {
        "labels": snap.labels,
        "heights": snap.heights,
        "fractions": sorted(sim.fork_fractions().items()),
        "births": sorted(sim.fork_births.items()),
        "synced": sim.synced_fraction(),
        "attacker": sim.attacker_fraction(),
    }


class TestVecDeterminism:
    def test_same_seed_same_trajectory(self):
        runs = []
        for _ in range(2):
            sim = _bridge(_attack_config(seed=5))
            states = []
            for _ in range(8):
                sim.run(50)
                states.append((sim.snapshot(), sorted(sim.fork_fractions().items())))
            runs.append(states)
        assert runs[0] == runs[1]

    def test_different_seeds_diverge(self):
        a = _bridge(_attack_config(seed=1))
        b = _bridge(_attack_config(seed=2))
        a.run(300)
        b.run(300)
        assert a.snapshot() != b.snapshot()

    def test_jobs4_equals_serial(self):
        """Seed-equivalence: worker fan-out never perturbs bridged grid runs."""
        trials = [
            Trial("grid-vec", index, 200 + index, (("size", 10),))
            for index in range(6)
        ]
        serial = TrialEngine(jobs=1).run(_bridge_trial, trials).payloads
        parallel = TrialEngine(jobs=4).run(_bridge_trial, trials).payloads
        assert serial == parallel


class TestVecApiParity:
    def test_observation_api_matches_scalar(self):
        config = _attack_config(seed=3)
        scalar = GridSimulator(config)
        bridge = _bridge(config)
        for sim in (scalar, bridge):
            sim.run(250)
            assert sim.step_count == 250
            fractions = sim.fork_fractions()
            assert sum(fractions.values()) == pytest.approx(1.0)
            assert 0.0 < sim.synced_fraction() <= 1.0
            assert 0.0 <= sim.attacker_fraction() <= 1.0
            assert sim.snapshot().fork_fractions() == fractions
        # The scalar engine reports grid rows, the bridge flat nodes.
        snap = scalar.snapshot()
        assert len(snap.labels) == config.size
        assert len(snap.labels[0]) == config.size
        assert len(snap.render().splitlines()) == config.size
        assert scalar.labels[0][0] in scalar.forks
        assert isinstance(scalar.heights[0][0], int)
        snap = bridge.snapshot()
        assert len(snap.labels) == len(snap.heights) == config.num_nodes
        assert bridge.labels[0] in bridge.forks
        assert isinstance(bridge.heights[0], int)

    def test_attacker_cell_stays_pinned(self):
        config = _attack_config(seed=7, size=10)
        sim = _bridge(config)
        sim.run(600)
        assert sim.attacker_fork is not None
        row, col = config.attacker_cell
        assert sim.labels[row * config.size + col] == sim.attacker_fork.label

    def test_no_attack_stays_honest(self):
        sim = _bridge(
            GridConfig(size=10, seed=1, attacker_share=0.0, steps_per_block=20)
        )
        sim.run(400)
        assert sim.attacker_fork is None
        assert sim.attacker_fraction() == 0.0
        assert sim.fork_fractions().get("A", 0.0) >= 0.9


class TestEngineSelection:
    def test_auto_uses_scalar_below_threshold(self):
        sim = make_simulator(GridConfig(size=VEC_SIZE_THRESHOLD - 1))
        assert isinstance(sim, GridSimulator)

    def test_auto_uses_vec_at_threshold(self):
        sim = make_simulator(GridConfig(size=VEC_SIZE_THRESHOLD))
        assert isinstance(sim, GraphSimulatorVec)
        assert sim.spec.rng_stream == "grid.vec"
        assert sim.spec.grid_size == VEC_SIZE_THRESHOLD

    def test_explicit_engines(self):
        config = GridConfig(size=60)
        assert isinstance(make_simulator(config, engine="scalar"), GridSimulator)
        assert isinstance(
            make_simulator(GridConfig(size=8), engine="graph"), GraphSimulatorVec
        )
        with pytest.raises(ConfigurationError):
            make_simulator(GridConfig(), engine="vec")

    def test_unknown_engine_raises(self):
        with pytest.raises(ConfigurationError):
            make_simulator(GridConfig(size=10), engine="cuda")

    def test_engine_catalogue(self):
        assert ENGINES == ("auto", "scalar", "graph")


class TestCrossEngineStatisticalEquivalence:
    """The scalar engine and the bridge simulate the same physics.

    Their streams differ (documented protocols), and the scalar engine
    reconciles sequentially within a step while the bridge reconciles
    synchronously, so individual runs differ — but fork-B peak
    capture, final chain-A recovery, and natural-fork lifetimes must
    agree in distribution over many seeds.
    """

    SEEDS = range(32)

    @staticmethod
    def _ensemble(build):
        peaks, finals, lifetimes = [], [], []
        for seed in TestCrossEngineStatisticalEquivalence.SEEDS:
            sim = build(_attack_config(seed))
            peak = 0.0
            for _ in range(40):
                sim.run(10)
                peak = max(peak, sim.attacker_fraction())
            peaks.append(peak)
            finals.append(sim.fork_fractions().get("A", 0.0))
            lifetimes.extend(sim.fork_lifetimes_in_blocks().values())
        return peaks, finals, lifetimes

    def test_distributions_agree(self):
        s_peaks, s_finals, s_lifetimes = self._ensemble(GridSimulator)
        v_peaks, v_finals, v_lifetimes = self._ensemble(_bridge)

        # Fork-B peak capture: a 30% attacker seizes most of a small,
        # under-synchronized grid in both engines, to similar extents.
        assert abs(statistics.mean(s_peaks) - statistics.mean(v_peaks)) < 0.15
        assert statistics.mean(s_peaks) > 0.3
        assert statistics.mean(v_peaks) > 0.3

        # Final chain-A recovery: the honest majority wins back most of
        # the grid by the horizon in both engines.
        assert abs(statistics.mean(s_finals) - statistics.mean(v_finals)) < 0.15
        assert statistics.mean(s_finals) > 0.5
        assert statistics.mean(v_finals) > 0.5

        # Natural-fork lifetimes: short-lived in both engines — the
        # paper's "within two or three block intervals" (§IV-B).
        for lifetimes in (s_lifetimes, v_lifetimes):
            if lifetimes:
                assert statistics.mean(lifetimes) <= 4.0
