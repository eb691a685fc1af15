"""Table V — maximum number of vulnerable (sustained-lagging) nodes."""

from __future__ import annotations

from ..analysis.vulnerable import vulnerable_table
from ..datagen import profiles
from ..datagen.consensus import ConsensusDynamicsGenerator
from .base import ExperimentResult

__all__ = ["run"]

#: The paper's population at the Table V measurement (~10,020 nodes).
PAPER_POPULATION = 10_020


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    """Regenerate Table V from the calibrated lag dynamics.

    Full mode: 10,020 nodes over two days at 1-minute sampling (the T
    values up to 200 minutes need multi-hour series).  Fast mode: 2,000
    nodes over 8 hours.
    """
    if fast:
        num_nodes, duration, t_values = 2000, 8 * 3600, (5, 10, 15, 30)
    else:
        num_nodes, duration = PAPER_POPULATION, 2 * 86_400
        t_values = tuple(t for t, _, _ in profiles.TABLE_V_ROWS)
    generator = ConsensusDynamicsGenerator(num_nodes=num_nodes, seed=seed)
    series = generator.generate(duration=duration, sample_interval=60.0)
    table = vulnerable_table(series, t_values=t_values)

    paper_rows = {t: (counts, pcts) for t, counts, pcts in profiles.TABLE_V_ROWS}
    rows = []
    metrics = {}
    for t in t_values:
        cells = table[t]
        row = [t]
        for cell in cells:
            row.append(f"{cell.max_nodes} ({cell.percentage:.2f}%)")
        rows.append(tuple(row))
        if t in paper_rows:
            metrics[f"T{t}_ge1"] = float(cells[0].max_nodes)
            metrics[f"T{t}_ge1_paper"] = float(paper_rows[t][0][0])
    metrics["headline_5min_fraction"] = table[t_values[0]][0].percentage / 100.0
    metrics["headline_5min_fraction_paper"] = profiles.FIVE_MIN_BEHIND_FRACTION
    return ExperimentResult(
        experiment_id="table5",
        title="Maximum number of vulnerable nodes per timing constraint",
        headers=["T (minutes)", ">= 1 block", ">= 2 blocks", ">= 5 blocks"],
        rows=rows,
        metrics=metrics,
        notes=(
            "Counts are maxima of the sustained-lag window optimization; "
            "the 5-minute headline (~62.7% >= 1 block) and the ~10% deep "
            "tail match the paper; mid-T decay is slower because Poisson "
            "block clustering chains lag episodes (see EXPERIMENTS.md)."
        ),
    )
