"""Quickstart: build the paper-calibrated world and poke at it.

Runs in a few seconds::

    python examples/quickstart.py

Walks through the library's layers: the calibrated Internet topology
(Table II), a synthetic Bitnodes snapshot (Table I / §IV-C), a block
propagation run on the graph engine, and one spatial hijack with its
cost curve (Figure 4).
"""

from repro import PopulationGenerator, SpatialAttack, build_paper_topology
from repro.analysis.centralization import coverage_count, top_entities
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.reporting.tables import format_table


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The spatial ground truth: 13,635 nodes over 1,660 ASes.
    # ------------------------------------------------------------------
    topology = build_paper_topology(seed=7)
    counts = topology.nodes_per_as()
    print(f"nodes: {topology.num_nodes}, ASes: {len(topology.ases)}")
    print(
        f"ASes hosting 30% / 50% of nodes: "
        f"{coverage_count(counts, 0.30)} / {coverage_count(counts, 0.50)}"
    )
    rows = [
        (topology.ases.get(asn).name, nodes, f"{pct:.2f}%")
        for asn, nodes, pct in top_entities(counts, k=5)
    ]
    print(format_table(["AS", "Nodes", "Share"], rows, title="\nTop-5 ASes"))

    # ------------------------------------------------------------------
    # 2. A Bitnodes-style snapshot of the population (Table I).
    # ------------------------------------------------------------------
    snapshot = PopulationGenerator(topology, seed=7).generate()
    summary = snapshot.summary()
    print(
        f"\nsnapshot: {summary['total']:.0f} nodes, "
        f"{summary['up']:.0f} up, {summary['synced']:.0f} synced"
    )

    # ------------------------------------------------------------------
    # 3. Block propagation: 200 peers with Bitcoin's 8 outbound links
    #    plus a heavy-tailed degree, 10% failed contacts, two hours
    #    (12 block intervals of 20 steps).
    # ------------------------------------------------------------------
    spec = GraphSpec.power_law(200, seed=7)
    sim = GraphSimulatorVec(
        GraphConfig(
            spec=spec, failure_rate=0.1, steps_per_block=20, attacker_share=0.0, seed=7
        )
    )
    sim.run(12 * 20)
    synced = round(sim.synced_fraction() * spec.num_nodes)
    print(
        f"\nsimulated 2h: height={max(sim.heights)}, "
        f"{synced}/{spec.num_nodes} nodes synced"
    )

    # ------------------------------------------------------------------
    # 4. One BGP hijack against Hetzner's AS (the Figure 4 headline).
    # ------------------------------------------------------------------
    attack = SpatialAttack(
        topology, attacker_asn=666, target_asn=24940, target_fraction=0.95
    )
    result = attack.execute()
    print(
        f"\nhijacked AS24940 with {result.effort:.0f} prefix announcements: "
        f"captured {result.num_victims} of 1030 nodes "
        f"({result.metric('captured_fraction'):.1%})"
    )


if __name__ == "__main__":
    main()
