"""The §V-C case study: a cloud provider with both capabilities.

    python examples/spatiotemporal_case_study.py

The paper's scenario: an adversary with routing *and* mining power
watches the one-day lag series (Figure 8), waits for the moment when
synced nodes bottom out, hijacks the top synced-node ASes (Table VII),
and feeds its counterfeit chain to the nodes the hijack cut off.
"""

import numpy as np

from repro import ConsensusDynamicsGenerator, SpatialAttack, build_paper_topology
from repro.attacks.spatiotemporal import SpatioTemporalPlan
from repro.experiments.table7 import PAPER_DAY_AS_QUALITY, PAPER_DAY_DEFAULT_QUALITY
from repro.netsim.graph import (
    GraphConfig,
    GraphSimulatorVec,
    GraphSpec,
    hijack_partition_mask,
)
from repro.reporting.figures import sparkline
from repro.reporting.tables import format_table
from repro.topology.bgp import BgpHijack


def main() -> None:
    topology = build_paper_topology(seed=31, scale=0.2)
    node_ids = sorted(topology.all_node_ids())
    node_asns = np.array([topology.asn_of(n) for n in node_ids])

    # ------------------------------------------------------------------
    # 1. One recorded day (Figure 8(a)): find the strike moment.
    # ------------------------------------------------------------------
    series = ConsensusDynamicsGenerator(
        num_nodes=len(node_ids),
        seed=31,
        node_asns=node_asns,
        as_quality=PAPER_DAY_AS_QUALITY,
        default_quality=PAPER_DAY_DEFAULT_QUALITY,
    ).generate(duration=86_400, sample_interval=600.0)

    synced_series = (series.lags == 0).sum(axis=1)
    print("synced nodes over the day:")
    print(" ", sparkline(synced_series.tolist()))

    plan = SpatioTemporalPlan.from_series(series, topology=topology)
    print(
        f"\nstrike at t={plan.strike_time:.0f}s: {plan.synced_count} synced, "
        f"{plan.lagging_count} lagging"
    )
    rows = [
        (f"AS{asn}", topology.orgs.get(topology.ases.get(asn).org_id).name)
        for asn in plan.target_asns
    ]
    print(
        format_table(
            ["AS", "Organization"],
            rows,
            title=f"\nSpatial targets (host {plan.spatial_coverage:.0%} of synced nodes)",
        )
    )

    # ------------------------------------------------------------------
    # 2. Execute both halves on the AS-level propagation graph: hijack
    #    the top three target ASes, then mine a counterfeit chain (30%
    #    of the hash rate) from inside the cut-off partition.
    # ------------------------------------------------------------------
    table = topology.build_routing_table()
    prefixes = 0
    for asn in plan.target_asns[:3]:
        spatial = SpatialAttack(
            topology, attacker_asn=666, target_asn=asn, target_fraction=0.95
        )
        prefixes += int(spatial.execute(table=table).effort)
    spec = GraphSpec.from_topology(topology, seed=31)
    mask = hijack_partition_mask(spec, topology, BgpHijack(attacker_asn=666), table)
    sim = GraphSimulatorVec(
        GraphConfig(
            spec=spec.partitioned(mask),
            failure_rate=0.05,
            steps_per_block=20,
            attacker_share=0.30,
            attacker_node=int(np.flatnonzero(mask)[0]),
            seed=31,
        )
    )
    sim.run(18 * 20)  # three hours of 20-step block intervals
    hosted = topology.nodes_per_as()
    cut_nodes = sum(hosted.get(spec.node_ids[i], 0) for i in np.flatnonzero(mask))
    on_b = sim.partition_fractions(mask).get("B", 0.0)
    print(
        f"\ncombined attack: hijacked {int(mask.sum())} ASes ({prefixes} "
        f"prefixes) hosting {cut_nodes} of {topology.num_nodes} nodes; "
        f"{on_b:.0%} of the cut-off ASes follow counterfeit chain B, "
        f"{sim.synced_fraction():.1%} of all ASes sit at the tip"
    )


if __name__ == "__main__":
    main()
