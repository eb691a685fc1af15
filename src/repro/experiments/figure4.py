"""Figure 4 — fraction of nodes hijacked vs number of BGP hijacks."""

from __future__ import annotations

from ..analysis.hijack import hijack_curve
from ..topology.builder import build_paper_topology
from .base import ExperimentResult

__all__ = ["run"]

#: The five ASes of Figure 4's legend.
FIGURE4_ASES = (24940, 16276, 37963, 16509, 14061)

#: Hijack counts tabulated in the result rows.
SAMPLE_HIJACKS = (5, 10, 15, 20, 40, 80, 140, 160)


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Regenerate the five hijack-cost curves."""
    topo = build_paper_topology(seed=seed)
    curves = {asn: hijack_curve(topo.pool(asn)) for asn in FIGURE4_ASES}

    rows = []
    for k in SAMPLE_HIJACKS:
        rows.append(
            (k, *(f"{curves[asn].fraction_at(k):.3f}" for asn in FIGURE4_ASES))
        )
    hetzner = curves[24940]
    amazon = curves[16509]
    metrics = {
        "as24940_prefixes_for_95pct": float(hetzner.hijacks_for(0.95) or -1),
        "as24940_prefixes_for_95pct_paper": 15.0,
        "as16509_prefixes_for_95pct": float(amazon.hijacks_for(0.95) or 9999),
        "as16509_prefixes_for_95pct_paper": 140.0,
        "as24940_total_prefixes": float(hetzner.total_prefixes),
        "as24940_total_prefixes_paper": 51.0,
        "as16509_total_prefixes": float(amazon.total_prefixes),
        "as16509_total_prefixes_paper": 2969.0,
    }
    # "For 8 ASes, 80% nodes can be isolated by hijacking 20 BGP prefixes"
    within_20 = sum(
        1 for curve in curves.values() if (curve.hijacks_for(0.80) or 9999) <= 20
    )
    metrics["ases_with_80pct_within_20_hijacks"] = float(within_20)
    return ExperimentResult(
        experiment_id="figure4",
        title="Fraction of nodes hijacked vs number of BGP hijacks (top 5 ASes)",
        headers=["Hijacks"] + [f"AS{asn}" for asn in FIGURE4_ASES],
        rows=rows,
        metrics=metrics,
        series={
            f"AS{asn}": [fraction for _, fraction in curves[asn].points[:161]]
            for asn in FIGURE4_ASES
        },
        notes=(
            "AS24940 falls with ~15 prefixes; AS16509 resists past 140 — the "
            "paper's effort-vs-advantage contrast."
        ),
    )
