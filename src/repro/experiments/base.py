"""Common experiment result schema and helpers.

Every experiment module exposes ``run(seed=0, fast=False) ->
ExperimentResult``; simulator-backed ones (``figure7``) also take
``engine`` and ``delay_model`` overrides.  ``fast=True`` shrinks the
workload (shorter series, smaller populations) for use in the test
suite; the default parameters regenerate the artifact at paper scale.
``run`` is a plain function of its arguments: it computes in the
calling process, draws all randomness from ``seed`` and starts no
workers.  Each artifact is one trial of the batch that
:func:`repro.experiments.run_artifacts` runs, which owns worker
processes, retries, timeouts and the result cache.

Results round-trip through plain dicts (:meth:`ExperimentResult.to_dict`
/ :meth:`ExperimentResult.from_dict`) so the on-disk result cache can
store them as JSON.  The round trip is equality-preserving: numpy
scalars are coerced to Python numbers and rows come back as tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..reporting.tables import format_table

__all__ = ["ExperimentResult"]


def _plain(value: Any) -> Any:
    """Coerce numpy scalars/arrays to JSON-serializable Python values."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


@dataclass
class ExperimentResult:
    """One regenerated table or figure.

    Attributes:
        experiment_id: ``"table1"`` ... ``"figure8"``.
        title: Paper artifact name.
        headers: Column names for the tabular view.
        rows: Table rows (figures tabulate selected points).
        metrics: Headline numbers compared against the paper (the
            EXPERIMENTS.md paper-vs-measured entries).
        series: Optional named data series (figures).
        notes: Free-form commentary (deviations, substitutions).
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[Tuple[Any, ...]]
    metrics: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, Sequence[float]] = field(default_factory=dict)
    notes: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the result-cache payload)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": [_plain(h) for h in self.headers],
            "rows": [_plain(row) for row in self.rows],
            "metrics": {key: _plain(value) for key, value in self.metrics.items()},
            "series": {key: _plain(list(value)) for key, value in self.series.items()},
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (rows as tuples)."""
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            headers=list(payload["headers"]),
            rows=[tuple(row) for row in payload["rows"]],
            metrics=dict(payload["metrics"]),
            series={key: list(value) for key, value in payload["series"].items()},
            notes=payload.get("notes", ""),
        )

    def render(self) -> str:
        """Human-readable block for the runner's output."""
        parts = [
            format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")
        ]
        if self.metrics:
            parts.append(
                "metrics: "
                + ", ".join(f"{k}={v:.4g}" for k, v in sorted(self.metrics.items()))
            )
        if self.notes:
            parts.append(f"note: {self.notes}")
        return "\n".join(parts)
