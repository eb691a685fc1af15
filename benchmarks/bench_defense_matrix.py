"""Defense matrix: each §V attack against its §VI countermeasure.

One timed scenario per (attack, defense) pair, measuring impact with
the defense off and on.  The assertions encode the paper's §VI claims:

- route purging undoes the spatial hijack's capture;
- stratum distribution multiplies the mining-isolation cost.

BlockAware's detection claim is checked by the D4 ablation in
``tests/countermeasures/test_blockaware.py``.
"""

import pytest

from repro.attacks.spatial import SpatialAttack
from repro.countermeasures.routing import RouteGuard
from repro.countermeasures.stratum import StratumDistribution
from repro.reporting.tables import format_table
from repro.topology.builder import build_paper_topology


def spatial_vs_routeguard():
    """Captured-node fraction before and after a route-guard pass."""
    topo = build_paper_topology(seed=13, scale=0.2)
    table = topo.build_routing_table()
    attack = SpatialAttack(
        topo, attacker_asn=666, target_asn=24940, target_fraction=0.95
    )
    result = attack.execute(table=table)
    captured_before = result.metric("captured_fraction")
    RouteGuard(topo).purge_and_promote(table)
    pool = topo.pool(24940)
    still_captured = sum(
        1
        for node_id in topo.nodes_in_as(24940)
        if table.origin_of(pool.node_ip(node_id)) == 666
    ) / max(len(topo.nodes_in_as(24940)), 1)
    return captured_before, still_captured


def isolation_vs_distribution():
    """ASes to hijack for 60% of hash power, centralized vs spread."""
    comparison = StratumDistribution(spread=4).cost_comparison(target_share=0.60)
    return comparison["baseline"], comparison["redistributed"]


def run_matrix():
    return {
        "spatial/route-guard": spatial_vs_routeguard(),
        "mining/stratum-spread": isolation_vs_distribution(),
    }


def test_defense_matrix(benchmark):
    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    print()
    rows = [
        (
            "spatial hijack / route guard",
            f"{results['spatial/route-guard'][0]:.1%} captured",
            f"{results['spatial/route-guard'][1]:.1%} captured",
        ),
        (
            "mining isolation / stratum spread",
            f"{results['mining/stratum-spread'][0]} ASes to 60%",
            f"{results['mining/stratum-spread'][1]} ASes to 60%",
        ),
    ]
    print(
        format_table(
            ["Attack / defense", "Without defense", "With defense"],
            rows,
            title="Defense matrix (paper §VI)",
        )
    )
    captured_before, captured_after = results["spatial/route-guard"]
    assert captured_before >= 0.9 and captured_after == 0.0
    cost_before, cost_after = results["mining/stratum-spread"]
    assert cost_after > cost_before * 3
