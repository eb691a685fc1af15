"""Regenerate the Table V / consensus-lag golden fixture.

Usage::

    PYTHONPATH=src python -m tests.analysis.regen_golden_vulnerable

Rewrites ``tests/analysis/fixtures/golden_vulnerable.json`` by running,
at seed 0, every paper artifact that generates a consensus-lag series
(Figures 6 and 8, Tables V and VII in ``--fast`` mode, and Table V in
full mode) and recording:

- per artifact, every :meth:`ConsensusDynamicsGenerator.generate` call
  in call order: node count, duration, sample interval, the lag
  matrix's shape and dtype, and a SHA-256 digest of its bytes;
- for Table V, every cell the artifact computes, as
  ``[t_minutes, lag_threshold, max_nodes, at_time, total_nodes]``.

Only run this after deliberately changing the lag model or the window
optimization's semantics — the new capture becomes the pinned truth,
so review the fixture diff like any other behaviour change.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List
from unittest import mock

import numpy as np

from repro.analysis.vulnerable import vulnerable_table
from repro.datagen.consensus import ConsensusDynamicsGenerator

FIXTURE = Path(__file__).parent / "fixtures" / "golden_vulnerable.json"

SEED = 0

#: (experiment id, fast) for every artifact run the fixture pins.
CASES = (
    ("figure6", True),
    ("figure8", True),
    ("table5", True),
    ("table7", True),
    ("table5", False),
)


def case_name(experiment_id: str, fast: bool) -> str:
    return f"{experiment_id}-{'fast' if fast else 'full'}"


def lag_digest(lags: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(lags).tobytes()).hexdigest()


def capture(experiment_id: str, fast: bool) -> dict:
    """Run one artifact at :data:`SEED` and record every lag series it
    generates and every Table V it computes (it runs in this process)."""
    module = importlib.import_module(f"repro.experiments.{experiment_id}")
    consensus: List[Dict[str, Any]] = []
    cells: List[List[Any]] = []
    generate = ConsensusDynamicsGenerator.generate

    def recording_generate(self, duration, sample_interval=600.0):
        series = generate(self, duration, sample_interval)
        consensus.append(
            {
                "duration": duration,
                "dtype": str(series.lags.dtype),
                "interval": sample_interval,
                "lags_sha256": lag_digest(series.lags),
                "num_nodes": self.num_nodes,
                "shape": list(series.lags.shape),
            }
        )
        return series

    def recording_table(*args, **kwargs):
        table = vulnerable_table(*args, **kwargs)
        for row in table.values():
            cells.extend(
                [c.t_minutes, c.lag_threshold, c.max_nodes, c.at_time, c.total_nodes]
                for c in row
            )
        return table

    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(ConsensusDynamicsGenerator, "generate", recording_generate)
        )
        if experiment_id == "table5":
            stack.enter_context(mock.patch.object(module, "vulnerable_table", recording_table))
        module.run(seed=SEED, fast=fast)
    entry: Dict[str, Any] = {"consensus": consensus}
    if experiment_id == "table5":
        entry["table5_cells"] = cells
    return entry


def main() -> None:
    captured = {case_name(*case): capture(*case) for case in CASES}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    for name, entry in captured.items():
        digests = ", ".join(c["lags_sha256"][:12] for c in entry["consensus"])
        cells = len(entry.get("table5_cells", []))
        print(f"{name}: lags {digests}" + (f"; {cells} Table V cells" if cells else ""))
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
