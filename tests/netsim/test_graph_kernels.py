"""Reconcile and RNG-protocol contracts of the sparse graph engine.

The buffered edge-parallel reconcile replaced a historical allocating
scatter-max kernel that was bit-identical to it.  Before that kernel
was deleted, both ran over the five golden scenario configs plus
dedicated delayed-edge and partition-mask configs across 16 seeds, a
calibrated-delay config and a protocol-2 config, and the checkpoints
they agreed on were captured in ``fixtures/retired_paths.json``; this
suite checks the surviving kernel against that capture.  It also pins
the delayed-offer store's bounded-queue invariant and maturation
order-independence under Hypothesis, and covers the versioned
protocol-2 RNG stream (``".p2"``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.netsim.latency import BITCOIN_PROPAGATION_2019

from . import graph_scenarios, retired_paths
from .retired_paths import delayed_config as _delayed_config


def _observations(sim: GraphSimulatorVec):
    return (
        sim.snapshot(),
        sorted(sim.fork_fractions().items()),
        dict(sim.fork_births),
        dict(sim.fork_deaths),
        sim.fork_lifetimes_in_blocks(),
    )


class TestCrossKernelBitIdentity:
    """The edge kernel replays what the edge and scatter kernels agreed on."""

    @pytest.mark.parametrize("name", sorted(graph_scenarios.SCENARIO_NAMES))
    def test_golden_scenarios(self, name):
        retired_paths.assert_replays(f"golden_{name}", 0)

    @pytest.mark.parametrize("seed", range(16))
    def test_delayed_edges_across_seeds(self, seed):
        retired_paths.assert_replays("delayed_edges", seed)

    @pytest.mark.parametrize("seed", range(16))
    def test_partition_mask_across_seeds(self, seed):
        retired_paths.assert_replays("partition_mask", seed)

    def test_calibrated_delay_model_config(self):
        spec = retired_paths.calibrated_delay_config(4).spec
        assert spec.edge_delays is not None
        retired_paths.assert_replays("calibrated_delay", 4)

    def test_protocol2_cross_kernel(self):
        retired_paths.assert_replays("protocol2_delayed", 8)


class TestDelayedOfferStore:
    """Flat-ring delivery: bounded in flight, order-independent payout."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        max_delay=st.integers(min_value=1, max_value=4),
        steps=st.integers(min_value=10, max_value=60),
    )
    @settings(max_examples=20, deadline=None)
    def test_bounded_queue_invariant(self, seed, max_delay, steps):
        """A stepping run never holds more than 2*N*max_delay offers."""
        config = GraphConfig(
            spec=GraphSpec.power_law(48, max_delay=max_delay, seed=seed % 7),
            seed=seed,
            failure_rate=0.1,
            steps_per_block=8,
            attacker_share=0.3,
            attacker_node=0,
            attack_start_step=10,
        )
        sim = GraphSimulatorVec(config)
        bound = 2 * config.num_nodes * max_delay
        assert sim._store.bound == bound
        for _ in range(steps):
            sim.run(1)
            assert sim._store.count <= bound

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        perm_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_maturation_is_order_independent_within_a_step(
        self, seed, perm_seed
    ):
        """Shuffling each step's matured batch never changes the run.

        Queued offers can tie only on equal ``(height, source)``, and a
        node's label cannot change without its height changing, so tied
        offers always carry equal labels — last-wins delivery order is
        observationally irrelevant.
        """
        config = _delayed_config(seed)
        baseline = GraphSimulatorVec(config)
        shuffled = GraphSimulatorVec(config)
        perm_rng = np.random.default_rng(perm_seed)

        class ShufflingStore:
            """Delegating wrapper (the real store uses __slots__)."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def pop(self, step):
                matured = self._inner.pop(step)
                if matured is None:
                    return None
                dest, src, hgt, lab = matured
                order = perm_rng.permutation(dest.size)
                return dest[order], src[order], hgt[order], lab[order]

        shuffled._store = ShufflingStore(shuffled._store)
        baseline.run(80)
        shuffled.run(80)
        assert _observations(baseline) == _observations(shuffled)

    def test_store_grows_geometrically_and_compacts(self):
        sim = GraphSimulatorVec(_delayed_config(1))
        sim.run(40)
        store = sim._store
        assert store.capacity >= store.count
        # Drain: with no new sends, everything matures within max_delay.
        assert store.count <= store.bound


class TestRngProtocol2:
    """The versioned fast-draw communication protocol (``".p2"``)."""

    @staticmethod
    def _config(seed: int, protocol: int) -> GraphConfig:
        return GraphConfig(
            spec=GraphSpec.power_law(200, seed=4, rng_protocol=protocol),
            seed=seed,
            failure_rate=0.10,
            steps_per_block=10,
            attacker_share=0.30,
            attacker_node=0,
            attack_start_step=60,
        )

    def test_stream_name_is_versioned(self):
        assert GraphSimulatorVec(self._config(0, 1)).RNG_STREAM == "graph.vec"
        assert GraphSimulatorVec(self._config(0, 2)).RNG_STREAM == "graph.vec.p2"

    def test_deterministic_per_seed(self):
        a = GraphSimulatorVec(self._config(9, 2))
        b = GraphSimulatorVec(self._config(9, 2))
        a.run(150)
        b.run(150)
        assert _observations(a) == _observations(b)

    def test_protocol_changes_the_draw_sequence(self):
        """Protocol 2 is a *different* stream — never silently swapped."""
        p1 = GraphSimulatorVec(self._config(3, 1))
        p2 = GraphSimulatorVec(self._config(3, 2))
        p1.run(150)
        p2.run(150)
        assert p1.snapshot() != p2.snapshot()

    def test_same_physics_in_distribution(self):
        """Both protocols drive the same Bernoulli contact process."""
        peaks = {1: [], 2: []}
        for protocol in (1, 2):
            for seed in range(12):
                sim = GraphSimulatorVec(self._config(seed, protocol))
                peak = 0.0
                for _ in range(20):
                    sim.run(10)
                    peak = max(peak, sim.attacker_fraction())
                peaks[protocol].append(peak)
        means = {p: sum(v) / len(v) for p, v in peaks.items()}
        assert abs(means[1] - means[2]) < 0.2

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            GraphSpec.power_law(32, rng_protocol=3)

    def test_protocol2_forbidden_on_the_grid_bridge(self):
        spec = GraphSpec.from_grid(8)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(spec, rng_protocol=2)


class TestPowerLawSpec:
    """Delay sources of the degree-calibrated power-law topology."""

    def test_delay_model_and_max_delay_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            GraphSpec.power_law(
                32, max_delay=2, delay_model=BITCOIN_PROPAGATION_2019
            )

    def test_delay_model_populates_edge_delays(self):
        spec = GraphSpec.power_law(
            64, seed=2, delay_model=BITCOIN_PROPAGATION_2019, tick_seconds=1.0
        )
        assert spec.edge_delays is not None
        assert spec.edge_delays.shape == (spec.num_edges,)
        assert int(spec.edge_delays.max()) >= 1  # 1-second ticks bite

    def test_delay_draws_are_independent_of_topology_draws(self):
        plain = GraphSpec.power_law(64, seed=2)
        delayed = GraphSpec.power_law(
            64, seed=2, delay_model=BITCOIN_PROPAGATION_2019, tick_seconds=1.0
        )
        assert np.array_equal(plain.indptr, delayed.indptr)
        assert np.array_equal(plain.indices, delayed.indices)
