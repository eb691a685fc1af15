"""Table II — top-10 ASes and organizations by hosted nodes."""

from __future__ import annotations

from ..analysis.centralization import top_entities
from ..topology.builder import build_paper_topology
from .base import ExperimentResult

__all__ = ["run"]


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Regenerate Table II from the calibrated topology.

    The top-10 AS counts are pinned to the paper, so this experiment
    doubles as a calibration audit; the organization half demonstrates
    the multi-AS amplification (Amazon 756 = AS16509 + AS14618, etc.).
    """
    topo = build_paper_topology(seed=seed)
    as_top = top_entities(topo.nodes_per_as(), k=10)
    org_top = top_entities(topo.nodes_per_org(), k=10)
    rows = []
    for (asn, as_count, as_pct), (org_id, org_count, org_pct) in zip(as_top, org_top):
        as_label = topo.ases.get(asn).name
        org_label = topo.orgs.get(org_id).name
        rows.append((as_label, as_count, as_pct, org_label, org_count, org_pct))
    metrics = {
        "top_as_nodes": float(as_top[0][1]),
        "top_as_nodes_paper": 1030.0,
        "top_as_pct": as_top[0][2],
        "top_as_pct_paper": 7.54,
        "top_org_nodes": float(org_top[0][1]),
        "top_org_nodes_paper": 1030.0,
        "amazon_org_nodes": float(
            dict(((o, c) for o, c, _ in org_top)).get("amazon", 0)
        ),
        "amazon_org_nodes_paper": 756.0,
    }
    return ExperimentResult(
        experiment_id="table2",
        title="Top 10 ASes and organizations (2018-02-28)",
        headers=["AS", "Nodes", "%", "Organization", "Nodes", "%"],
        rows=rows,
        metrics=metrics,
    )
