"""Figure 3 — CDF of full nodes over ASes and organizations."""

from __future__ import annotations

from ..analysis.centralization import cdf_points, coverage_count
from ..topology.builder import build_paper_topology
from .base import ExperimentResult

__all__ = ["run"]

#: Ranks tabulated in the result (the CDF's interesting prefix).
SAMPLE_RANKS = (1, 8, 13, 21, 24, 50, 100, 400, 800, 1600)


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Regenerate Figure 3's two CDFs."""
    if fast:
        topo = build_paper_topology(seed=seed, scale=0.3)
    else:
        topo = build_paper_topology(seed=seed)
    as_counts = topo.nodes_per_as()
    org_counts = topo.nodes_per_org()
    as_cdf = dict(cdf_points(as_counts))
    org_cdf = dict(cdf_points(org_counts))

    rows = []
    for rank in SAMPLE_RANKS:
        if rank > len(as_cdf):
            break
        rows.append(
            (
                rank,
                f"{as_cdf[rank]:.3f}",
                f"{org_cdf.get(rank, 1.0):.3f}",
            )
        )
    metrics = {
        "as_coverage_30pct": float(coverage_count(as_counts, 0.30)),
        "as_coverage_30pct_paper": 8.0,
        "as_coverage_50pct": float(coverage_count(as_counts, 0.50)),
        "as_coverage_50pct_paper": 24.0,
        "org_coverage_50pct": float(coverage_count(org_counts, 0.50)),
        "org_coverage_50pct_paper": 21.0,
    }
    return ExperimentResult(
        experiment_id="figure3",
        title="CDF of Bitcoin full nodes in ASes and organizations",
        headers=["Rank", "AS CDF", "Org CDF"],
        rows=rows,
        metrics=metrics,
        series={
            "as_cdf": [f for _, f in sorted(as_cdf.items())][:200],
            "org_cdf": [f for _, f in sorted(org_cdf.items())][:200],
        },
        notes="Organizations dominate ASes at every rank (tighter centralization).",
    )
