"""Golden regression tests for the consensus-lag generator and Table V.

The fixture in ``fixtures/golden_vulnerable.json`` was captured by
``regen_golden_vulnerable.py`` before the sustained-lag window
optimization and the generator's synced-count scatter were rewritten
for speed.  Every artifact run must reproduce exactly: each generated
lag matrix byte for byte, and each Table V cell with its witness time
(``at_time``, which pins the first-index tie-break of the argmax).

If a test fails after a change to ``datagen/consensus.py`` or
``analysis/vulnerable.py``, the change altered the generated series or
the optimization's answer, not just its performance — Figures 6 and 8
and Tables V and VII would move with it.  Regenerate deliberately
with::

    PYTHONPATH=src python -m tests.analysis.regen_golden_vulnerable

and review the fixture diff like any other behaviour change.
"""

from __future__ import annotations

import json

import pytest

from .regen_golden_vulnerable import CASES, FIXTURE, capture, case_name

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case() -> None:
    assert sorted(GOLDEN) == sorted(case_name(*case) for case in CASES)
    assert len(GOLDEN["table5-fast"]["table5_cells"]) == 12
    assert len(GOLDEN["table5-full"]["table5_cells"]) == 27


@pytest.mark.parametrize("experiment_id,fast", CASES, ids=[case_name(*c) for c in CASES])
def test_golden_artifact_run(experiment_id: str, fast: bool) -> None:
    assert capture(experiment_id, fast) == GOLDEN[case_name(experiment_id, fast)]
