"""The benchmark floor gates must compare something before they pass.

Regression for a vacuous pass: ``check_floor`` skipped every tier
missing on either side, so ``bench_graph_engine.py --sizes 500
--floor-against BENCH_graph.json`` (no committed ``graph-n500`` tier)
printed "floor check passed" after comparing nothing.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


def _load(script: str):
    spec = importlib.util.spec_from_file_location(
        script.replace(".py", ""), _BENCHMARKS / script
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _document(stat: str, **tiers: float) -> dict:
    return {
        "benchmarks": [
            {"name": name, "stats": {stat: value}} for name, value in tiers.items()
        ]
    }


@pytest.mark.parametrize(
    "script, stat",
    [
        ("bench_graph_engine.py", "steps_per_second"),
        ("bench_sweeps.py", "specs_per_second"),
    ],
)
class TestCheckFloor:
    def test_no_shared_tier_fails(self, script, stat):
        check_floor = _load(script).check_floor
        failures = check_floor(
            _document(stat, new=100.0), _document(stat, old=100.0), 0.5
        )
        assert failures and "nothing compared" in failures[0]

    def test_shared_tier_above_floor_passes(self, script, stat):
        check_floor = _load(script).check_floor
        run = _document(stat, a=60.0, extra=1.0)
        committed = _document(stat, a=100.0, huge=5.0)
        assert check_floor(run, committed, 0.5) == []

    def test_shared_tier_below_floor_fails(self, script, stat):
        check_floor = _load(script).check_floor
        failures = check_floor(
            _document(stat, a=40.0), _document(stat, a=100.0), 0.5
        )
        assert len(failures) == 1 and failures[0].startswith("a: ")


def test_graph_cli_exits_with_floor_error_when_no_tier_matches(tmp_path, capsys):
    bench = _load("bench_graph_engine.py")
    committed = tmp_path / "committed.json"
    committed.write_text(
        json.dumps(_document("steps_per_second", **{"graph-n1000": 1.0}))
    )
    status = bench.main(
        [
            "--sizes", "64",
            "--steps", "5",
            "--no-huge",
            "--out", str(tmp_path / "run.json"),
            "--floor-against", str(committed),
        ]
    )
    assert status == bench.FLOOR_EXIT
    out = capsys.readouterr().out
    assert "nothing compared" in out
    assert "floor check passed" not in out
