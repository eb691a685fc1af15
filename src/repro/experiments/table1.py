"""Table I — overview node characteristics by address type."""

from __future__ import annotations

from ..analysis.characteristics import type_characteristics_table
from ..datagen import profiles
from ..datagen.population import PopulationGenerator
from ..topology.builder import build_paper_topology
from .base import ExperimentResult

__all__ = ["run"]


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Regenerate Table I from a synthetic snapshot.

    ``fast`` shrinks the population ~10x; counts then scale
    proportionally while the per-type moments stay calibrated.
    """
    if fast:
        topo = build_paper_topology(seed=seed, scale=0.2)
    else:
        topo = build_paper_topology(seed=seed)
    snapshot = PopulationGenerator(topo, seed=seed).generate()
    rows = []
    metrics = {}
    for row in type_characteristics_table(snapshot):
        s = row.stats
        rows.append(
            (
                row.label,
                s.count,
                s.link_speed_mean,
                s.link_speed_std,
                s.latency_mean,
                s.latency_std,
                s.uptime_mean,
                s.uptime_std,
            )
        )
        reference = profiles.TYPE_PROFILES[row.address_type]
        metrics[f"{row.label}_count"] = float(s.count)
        metrics[f"{row.label}_count_paper"] = float(reference.count)
        metrics[f"{row.label}_speed_mean"] = s.link_speed_mean
        metrics[f"{row.label}_speed_mean_paper"] = reference.link_speed_mean
    return ExperimentResult(
        experiment_id="table1",
        title="Node characteristics by address type (2018-02-28 snapshot)",
        headers=[
            "Type",
            "Count",
            "Speed mu",
            "Speed sigma",
            "Latency mu",
            "Latency sigma",
            "Uptime mu",
            "Uptime sigma",
        ],
        rows=rows,
        metrics=metrics,
        notes=(
            "Counts pinned to the paper at full scale; link speeds are "
            "moment-matched lognormal, indices moment-matched Beta/Bernoulli."
        ),
    )
