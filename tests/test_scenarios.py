"""The paper network on the graph engine.

The calibrated paper topology becomes an AS-level propagation graph
through :meth:`GraphSpec.from_topology`; the Table IV pool mapping says
which mining pools a stratum hijack stops.
"""

from repro.analysis.poolmap import map_pools
from repro.attacks.spatial import StratumIsolation
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec


class TestPaperNetwork:
    def test_ids_align_with_topology(self, small_topology):
        spec = GraphSpec.from_topology(small_topology, seed=3)
        assert list(spec.node_ids) == sorted(small_topology.ases.asns())
        hosted = small_topology.nodes_per_as()
        assert [int(w) for w in spec.node_weights] == [
            hosted.get(asn, 0) for asn in spec.node_ids
        ]

    def test_pool_for_stratum(self):
        at_45102 = {
            name for name, _, asns, _ in map_pools().rows if 45102 in asns
        }
        assert "Antpool" in at_45102

    def test_stratum_isolation_integrates(self):
        """The Table IV prediction: the 3-AS isolation stops every pool
        whose stratum servers all sit in the hijacked ASes."""
        attack = StratumIsolation(target_hash_share=0.65)
        hijacked = set(attack.plan())
        stopped = {
            name
            for name, _, asns, _ in attack.mapping.rows
            if set(asns) <= hijacked
        }
        assert {"BTC.com", "Antpool", "ViaBTC", "BTC.TOP", "F2Pool"} <= stopped
        assert attack.execute().metric("isolated_hash_share") >= 0.65

    def test_simulation_runs(self, small_topology):
        spec = GraphSpec.from_topology(small_topology, seed=3)
        sim = GraphSimulatorVec(
            GraphConfig(spec=spec, steps_per_block=20, attacker_share=0.0)
        )
        synced = []
        for _ in range(200):
            sim.step()
            synced.append(sim.synced_fraction())
        assert max(sim.heights) >= 1
        # Blocks reach the whole AS graph between blocks.
        assert sum(synced) / len(synced) > 0.8
