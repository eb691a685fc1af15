"""Spatial partitioning campaign (paper §V-A) end to end.

    python examples/spatial_hijack_campaign.py

Scenario: a malicious AS evaluates all five Figure-4 targets by
effort-vs-advantage, hijacks the best one and cuts it out of the
AS-level propagation graph (the Apostolaki et al. BGP partition),
isolates 60%+ of the mining power via stratum servers (Table IV), and
is finally undone by the route-purging countermeasure (§VI).
"""

import numpy as np

from repro import SpatialAttack, StratumIsolation, build_paper_topology
from repro.analysis.hijack import hijack_curve
from repro.countermeasures.routing import RouteGuard
from repro.netsim.graph import (
    GraphConfig,
    GraphSimulatorVec,
    GraphSpec,
    hijack_partition_mask,
)
from repro.reporting.tables import format_table
from repro.topology.bgp import BgpHijack

FIGURE4_ASES = (24940, 16276, 37963, 16509, 14061)


def main() -> None:
    topology = build_paper_topology(seed=11)

    # 1. Figure 4: effort-vs-advantage across the candidate targets.
    rows = []
    for asn in FIGURE4_ASES:
        curve = hijack_curve(topology.pool(asn))
        rows.append(
            (
                f"AS{asn}",
                curve.total_nodes,
                curve.total_prefixes,
                curve.hijacks_for(0.80) or "-",
                curve.hijacks_for(0.95) or ">160",
            )
        )
    print(
        format_table(
            ["Target", "Nodes", "Prefixes", "k for 80%", "k for 95%"],
            rows,
            title="Hijack cost per target (Figure 4)",
        )
    )

    # 2. Hijack the cheapest target and propagate blocks over the
    # AS-level graph of a 20%-scale world (the capture mask routes
    # every hosted node's IP, and each lookup scans the whole table).
    # An AS whose nodes mostly route to the attacker loses every
    # peering.
    world = build_paper_topology(seed=11, scale=0.2)
    table = world.build_routing_table()
    attack = SpatialAttack(
        world, attacker_asn=666, target_asn=24940, target_fraction=0.95
    )
    result = attack.execute(table=table)
    print(
        f"\nexecuted: {result.effort:.0f} bogus prefixes -> "
        f"{result.metric('captured_fraction'):.1%} of AS24940 captured"
    )
    spec = GraphSpec.from_topology(world, seed=11)
    mask = hijack_partition_mask(spec, world, BgpHijack(attacker_asn=666), table)
    sim = GraphSimulatorVec(
        GraphConfig(
            spec=spec.partitioned(mask),
            failure_rate=0.05,
            steps_per_block=20,
            attacker_share=0.0,
            seed=11,
        )
    )
    sim.run(18 * 20)  # three hours of 20-step block intervals
    heights = np.asarray(sim.heights)
    cut = [spec.node_ids[i] for i in np.flatnonzero(mask)]
    print(
        f"after 3h: cut-off ASes {cut} sit at height "
        f"{heights[mask].max()}, the rest of the network at {heights.max()}"
    )

    # 3. Mining isolation: 3 ASes carry >60% of hash power (Table IV).
    isolation = StratumIsolation(target_hash_share=0.60)
    iso_result = isolation.execute()
    print(
        f"\nstratum isolation: hijacking ASes {isolation.plan()} severs "
        f"{iso_result.metric('isolated_hash_share'):.1%} of the hash rate"
    )

    # 4. Countermeasure: purge bogus routes, promote legitimate ones.
    stats = RouteGuard(world).purge_and_promote(table)
    healed = hijack_partition_mask(spec, world, BgpHijack(attacker_asn=666), table)
    print(
        f"\nroute guard: purged {stats['purged']} bogus routes, "
        f"re-promoted {stats['promoted']}; {int(healed.sum())} ASes still "
        "captured, so no peering needs cutting"
    )


if __name__ == "__main__":
    main()
