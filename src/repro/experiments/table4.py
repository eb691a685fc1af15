"""Table IV — top-5 mining pools, their stratum ASes and organizations."""

from __future__ import annotations

from ..analysis.poolmap import map_pools
from ..datagen.pools import OTHERS_HASH_SHARE
from ..topology.builder import build_paper_topology
from .base import ExperimentResult

__all__ = ["run"]


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Regenerate Table IV via the topology join."""
    topo = None if fast else build_paper_topology(seed=seed)
    mapping = map_pools(topology=topo)
    rows = []
    for name, share, asns, orgs in mapping.rows:
        rows.append(
            (
                name,
                f"{share * 100:.1f}%",
                ", ".join(f"AS{a}" for a in asns),
                ", ".join(orgs),
            )
        )
    rows.append(("12 others", f"{OTHERS_HASH_SHARE * 100:.1f}%", "-", "-"))
    group, group_share = mapping.dominant_group
    metrics = {
        "covered_share": mapping.covered_share,
        "covered_share_paper": 0.657,
        "dominant_group_share": group_share,
        "dominant_group_share_paper": 0.594,
        "asns_for_65pct": float(len(mapping.top_asns_for_share(0.65))),
        "asns_for_65pct_paper": 3.0,
    }
    return ExperimentResult(
        experiment_id="table4",
        title="Top 5 mining pools per hash rate, ASes, organizations",
        headers=["Mining Pool", "H. Rate %", "ASes", "Organizations"],
        rows=rows,
        metrics=metrics,
        notes=(
            f"Dominant group: {group} with {group_share:.1%} of hash rate "
            "(paper: AliBaba >= 59.4%); 65.7% transits three organizations."
        ),
    )
