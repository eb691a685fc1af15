"""Golden placement regression tests for the paper-topology builder.

The fixture in ``fixtures/golden_topology.json`` was captured by
``regen_golden_topology.py`` before the node→prefix placement was
optimised.  Every (seed, scale) case must reproduce exactly: which AS
hosts each node, which prefix each pool announces, and which prefix
and IP each node is placed at, in the same order.

If a test fails after a change to ``topology/prefix.py`` or
``topology/builder.py``, the change altered the placement itself (the
draws, their order, or the RNG stream position), not just its
performance — Figure 4 and Tables I–III, VII and VIII would move with
it.  Regenerate deliberately with::

    PYTHONPATH=src python -m tests.topology.regen_golden_topology

and review the fixture diff like any other behaviour change.
"""

from __future__ import annotations

import json

import pytest

from .regen_golden_topology import CASES, FIXTURE, capture, case_name

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case() -> None:
    assert sorted(GOLDEN) == sorted(case_name(*case) for case in CASES)


@pytest.mark.parametrize("seed,scale", CASES, ids=[case_name(*c) for c in CASES])
def test_golden_placement(seed: int, scale: float) -> None:
    assert capture(seed, scale) == GOLDEN[case_name(seed, scale)]
