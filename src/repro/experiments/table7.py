"""Table VII — top-5 ASes hosting the synchronized nodes over 24 hours."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..analysis.synced import synced_as_table
from ..crawler.timeseries import ConsensusTimeSeries
from ..datagen import profiles
from ..datagen.consensus import ConsensusDynamicsGenerator
from ..topology.builder import build_paper_topology
from ..topology.topology import Topology
from .base import ExperimentResult

__all__ = ["run", "paper_day", "PAPER_DAY_AS_QUALITY", "PAPER_DAY_DEFAULT_QUALITY"]

#: Per-AS catch-up quality multipliers (< 1 = faster sync) calibrated so
#: the Figure 6(b) day's synced-node ranking matches Table VII.  The
#: paper's March-25 network differed from the February-28 snapshot
#: (AS4134 hosted far more synced nodes than its February node count
#: allows); quality differences recover the published ordering.
PAPER_DAY_AS_QUALITY = {
    4134: 0.05,
    24940: 5.0,
    16276: 3.0,
    16509: 2.3,
    14061: 1.40,
    37963: 4.2,
    7922: 1.3,
}

#: Baseline quality of every other AS on the paper day (slightly worse
#: than the top-5 targets so they concentrate the synced population).
PAPER_DAY_DEFAULT_QUALITY = 2.6


def paper_day(seed: int, fast: bool) -> Tuple[Topology, ConsensusTimeSeries]:
    """The paper topology and its lag series over the Figure 6(b) day.

    Table VII and Figure 8 both read this day at 10-minute sampling;
    ``fast`` shrinks it to a quarter-scale topology over six hours.
    """
    scale, duration = (0.25, 6 * 3600) if fast else (1.0, 86_400)
    topo = build_paper_topology(seed=seed, scale=scale)
    node_ids = sorted(topo.all_node_ids())
    node_asns = np.array([topo.asn_of(nid) for nid in node_ids])
    generator = ConsensusDynamicsGenerator(
        num_nodes=len(node_ids),
        seed=seed,
        node_asns=node_asns,
        as_quality=PAPER_DAY_AS_QUALITY,
        default_quality=PAPER_DAY_DEFAULT_QUALITY,
    )
    return topo, generator.generate(duration=duration, sample_interval=600.0)


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Regenerate Table VII: simulate the Figure 6(b) day and rank ASes."""
    topo, series = paper_day(seed, fast)
    table = synced_as_table(series, topology=topo, k=5)

    rows = [
        (f"AS{row.asn}", row.org_name, row.mean_synced_nodes, f"{row.percentage:.2f}%")
        for row in table
    ]
    top5_share = sum(row.percentage for row in table) / 100.0
    paper_asns = [asn for asn, _, _, _ in profiles.TABLE_VII_ROWS]
    overlap = len({row.asn for row in table} & set(paper_asns))
    metrics = {
        "top5_synced_share": top5_share,
        "top5_synced_share_paper": 0.28,
        "top5_overlap_with_paper": float(overlap),
        "rank1_asn": float(table[0].asn),
        "rank1_asn_paper": 4134.0,
    }
    return ExperimentResult(
        experiment_id="table7",
        title="Top 5 ASes hosting synchronized nodes over 24 hours",
        headers=["AS", "Organization", "Nodes", "Percentage"],
        rows=rows,
        metrics=metrics,
        notes=(
            "Per-AS sync-quality multipliers reproduce the paper's ranking "
            "(AS4134 first) from the February topology; absolute counts "
            "scale with the AS node populations."
        ),
    )
