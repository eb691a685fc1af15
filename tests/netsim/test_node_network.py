"""Peer graph, block propagation and eclipse on the graph engine.

A node's peers are its CSR row in :class:`GraphSpec`; a block spreads
by the engine's push-pull gossip; an eclipse is a
:meth:`GraphSpec.partitioned` cut.  Every test drives the public API
of :class:`GraphSimulatorVec` only.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.netsim.timeline import Timeline, TimelineEvent


def perfect_sim(spec, steps_per_block=200, attacker_share=0.0, **kwargs):
    """Zero-failure, fork-free run (the §V-B base scenario)."""
    return GraphSimulatorVec(
        GraphConfig(
            spec=spec,
            failure_rate=kwargs.pop("failure_rate", 0.0),
            steps_per_block=steps_per_block,
            attacker_share=attacker_share,
            natural_fork_rate=0.0,
            **kwargs,
        )
    )


def run_until_first_block(sim, limit=2000):
    while max(sim.heights) == 0:
        sim.step()
        assert sim.step_count < limit, "no block mined"


def edge_pairs(spec):
    src = np.repeat(np.arange(spec.num_nodes), spec.degrees)
    return list(zip(src.tolist(), spec.indices.tolist()))


def eclipse_mask(num_nodes, victims):
    mask = np.zeros(num_nodes, dtype=bool)
    mask[list(victims)] = True
    return mask


class TestNetworkConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GraphSpec.power_law(1)
        with pytest.raises(ConfigurationError):
            GraphSpec.power_law(10, base_degree=0)
        with pytest.raises(ConfigurationError):
            GraphConfig(spec=GraphSpec.power_law(10), failure_rate=1.0)


class TestPeerGraph:
    def test_every_node_has_outbound_budget(self, tiny_topology):
        spec = GraphSpec.power_law(40, base_degree=8, seed=1)
        assert (spec.degrees >= 8).all()
        # AS graphs: every AS dials its peers_per_node peers (plus
        # whoever dialled it).
        as_spec = GraphSpec.from_topology(tiny_topology, peers_per_node=2)
        assert (as_spec.degrees >= 2).all()

    def test_links_are_bidirectional(self, tiny_topology):
        spec = GraphSpec.from_topology(tiny_topology, peers_per_node=2)
        pairs = set(edge_pairs(spec))
        assert pairs
        assert all((b, a) in pairs for a, b in pairs)

    def test_no_self_loops(self, tiny_topology):
        for spec in (
            GraphSpec.power_law(40, seed=1),
            GraphSpec.from_topology(tiny_topology, peers_per_node=3),
        ):
            assert all(a != b for a, b in edge_pairs(spec))

    def test_disconnect(self):
        spec = GraphSpec.power_law(40, seed=1)
        mask = eclipse_mask(40, range(30, 40))
        cut = spec.partitioned(mask)
        assert all(mask[a] == mask[b] for a, b in edge_pairs(cut))
        inside = [(a, b) for a, b in edge_pairs(spec) if mask[a] == mask[b]]
        assert edge_pairs(cut) == inside
        assert cut.num_edges < spec.num_edges

    def test_add_peer_preserves_insertion_order(self):
        """The neighbour draw indexes into each row, so cutting edges
        must keep the surviving peers in their original order."""
        spec = GraphSpec.power_law(40, seed=2)
        mask = eclipse_mask(40, [3, 17, 23, 31])
        for derived, keep in (
            (spec.unreachable(mask), lambda a, b: not mask[b]),
            (spec.partitioned(mask), lambda a, b: mask[a] == mask[b]),
        ):
            for node in range(spec.num_nodes):
                row = spec.indices[spec.indptr[node] : spec.indptr[node + 1]]
                kept = derived.indices[
                    derived.indptr[node] : derived.indptr[node + 1]
                ]
                assert kept.tolist() == [p for p in row.tolist() if keep(node, p)]


class TestBlockPropagation:
    def test_block_reaches_all_nodes_perfect_network(self):
        sim = perfect_sim(GraphSpec.power_law(30, seed=1))
        run_until_first_block(sim)
        sim.run(30)
        assert max(sim.heights) == 1
        assert all(height == 1 for height in sim.heights)

    def test_propagation_with_failures_recovers_via_retries(self):
        sim = perfect_sim(GraphSpec.power_law(40, seed=2), failure_rate=0.2)
        run_until_first_block(sim)
        sim.run(60)
        # Each step re-draws the failed contacts, so the gaps close.
        assert sum(height >= 1 for height in sim.heights) == 40

    def test_mining_extends_chain(self):
        sim = GraphSimulatorVec(
            GraphConfig(
                spec=GraphSpec.power_law(60, seed=3),
                steps_per_block=20,
                attacker_share=0.0,
            )
        )
        sim.run(600)
        tip = max(sim.heights)
        assert tip >= 5
        # Every node within a block of the tip in a healthy network.
        assert sum(tip - height <= 1 for height in sim.heights) >= 55


class TestEclipse:
    def test_eclipsed_nodes_receive_nothing(self):
        victims = [15, 16, 17]
        spec = GraphSpec.power_law(20, seed=1).partitioned(
            eclipse_mask(20, victims)
        )
        sim = perfect_sim(spec, steps_per_block=20)
        sim.run(200)
        heights = sim.heights
        assert max(heights) >= 1
        assert all(heights[v] == 0 for v in victims)
        assert heights[1] == max(heights)

    def test_heal_restores_flow_via_next_block(self):
        """Nodes cut off by a partition fall behind and catch up once
        the partition heals."""
        sim = perfect_sim(GraphSpec.power_law(20, seed=1), steps_per_block=20)
        sim.attach_timeline(
            Timeline(
                [
                    TimelineEvent(step=0, partition_fraction=0.25),
                    TimelineEvent(step=300, partition_fraction=0.0),
                ]
            )
        )
        sim.run(299)
        heights = sim.heights
        assert min(heights) < max(heights)
        sim.run(40)
        assert max(sim.heights) - min(sim.heights) <= 1

    def test_attacker_crosses_eclipse_boundary(self):
        """The attacker sits inside the eclipse: its counterfeit fork B
        reaches the victims and nobody outside."""
        victims = [5, 6]
        mask = eclipse_mask(20, [0] + victims)
        spec = GraphSpec.power_law(20, seed=1).partitioned(mask)
        sim = perfect_sim(spec, steps_per_block=20, attacker_share=0.3)
        sim.run(300)
        assert sim.attacker_fork is not None
        assert sim.attacker_fork.counterfeit
        labels = sim.labels
        assert all(labels[v] == "B" for v in victims)
        assert all(labels[n] != "B" for n in range(20) if not mask[n])

    def test_offline_nodes_ignore_traffic(self):
        spec = GraphSpec.power_law(10, seed=4).partitioned(eclipse_mask(10, [4]))
        sim = perfect_sim(spec, steps_per_block=20)
        sim.run(100)
        assert max(sim.heights) >= 1
        assert sim.heights[4] == 0


class TestNodeStats:
    def test_node_config_validation(self):
        with pytest.raises(ConfigurationError):
            GraphSpec(indptr=[0, 1, 2], indices=[1, 2])  # edge to node 2
        with pytest.raises(ConfigurationError):
            GraphSpec(indptr=[0, 2, 1], indices=[1])  # indptr decreasing

    def test_partition_views_groups_by_tip(self):
        def views(sim):
            return set(zip(sim.labels, sim.heights))

        spec = GraphSpec.power_law(10, seed=4)
        assert len(views(perfect_sim(spec))) == 1
        sim = perfect_sim(spec.partitioned(eclipse_mask(10, [9])))
        run_until_first_block(sim)
        sim.run(30)
        assert views(sim) == {("A", 0), ("A", 1)}
