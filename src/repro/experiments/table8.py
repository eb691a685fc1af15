"""Table VIII — top-5 software versions among full nodes."""

from __future__ import annotations

from ..attacks.logical import LogicalAttack
from ..datagen.population import PopulationGenerator
from ..datagen.versions import SOFTWARE_VERSIONS, TOTAL_VARIANTS
from ..topology.builder import build_paper_topology
from .base import ExperimentResult

__all__ = ["run"]


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Regenerate Table VIII from the snapshot's version census."""
    topo = build_paper_topology(seed=seed, scale=0.2 if fast else 1.0)
    snapshot = PopulationGenerator(topo, seed=seed).generate()
    report = LogicalAttack(snapshot).assess()

    reference = {rec.version: rec for rec in SOFTWARE_VERSIONS}
    top = sorted(report.version_shares.items(), key=lambda kv: -kv[1])[:5]
    rows = []
    metrics = {
        "distinct_versions": float(report.distinct_versions),
        "distinct_versions_paper": float(TOTAL_VARIANTS),
        "dominant_share": report.dominant_version_share,
        "dominant_share_paper": 0.3628,
    }
    for rank, (version, share) in enumerate(top, start=1):
        record = reference.get(version)
        rows.append(
            (
                rank,
                version,
                record.release_date if record else "-",
                record.lag_days if record else "-",
                f"{share * 100:.2f}%",
            )
        )
        if record:
            metrics[f"rank{rank}_share"] = share
            metrics[f"rank{rank}_share_paper"] = record.users_pct / 100.0
    return ExperimentResult(
        experiment_id="table8",
        title="Top 5 software versions used by Bitcoin full nodes",
        headers=["Index", "Version", "Release Date", "Lag", "Users %"],
        rows=rows,
        metrics=metrics,
        notes=f"Census carries {report.distinct_versions} distinct variants (paper: 288).",
    )
