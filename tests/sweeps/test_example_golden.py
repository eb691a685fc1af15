"""Golden test over the committed example sweep.

``examples/sweeps/frontier_fast.json`` is the repo's reference sweep:
1024 specs (a 256-point grid plus 768 random samples) at ``--fast``
scale.  This module pins the acceptance triangle on that exact file —
the artifact is bit-identical between serial and a 4-worker pool (its
specs are cheap enough to run inline, so the pooled run sets a trial
timeout, which only a worker can enforce), a warm-cache re-run
executes zero trials, and the frontier summary matches the committed
golden fixture byte for byte.  A golden drift means scenario semantics
changed: regenerate deliberately with ``repro-experiments sweep
examples/sweeps/frontier_fast.json`` and review the diff.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.parallel import METRICS, FailurePolicy, ResultCache, faults
from repro.sweeps import compute_frontier, load_specfile, run_sweep

REPO_ROOT = Path(__file__).resolve().parents[2]
PLAN_PATH = REPO_ROOT / "examples" / "sweeps" / "frontier_fast.json"
GOLDEN_PATH = Path(__file__).parent / "fixtures" / "frontier_fast_golden.json"


@pytest.fixture(scope="module")
def plan():
    return load_specfile(PLAN_PATH)


@pytest.fixture(scope="module")
def serial_result(plan):
    return run_sweep(plan.specs, root_seed=plan.seed, jobs=1)


class TestExampleSweep:
    def test_plan_is_at_least_a_thousand_specs(self, plan):
        assert len(plan.specs) >= 1000
        assert plan.name == "frontier-fast"

    def test_artifact_identical_serial_vs_jobs4(self, plan, serial_result):
        before = len(METRICS.records)
        fanned = run_sweep(
            plan.specs,
            root_seed=plan.seed,
            jobs=4,
            policy=FailurePolicy(trial_timeout=60),
        )
        workers = {record.worker for record in METRICS.records[before:]}
        assert workers - {os.getpid()}, "no trial ran in a worker process"
        serial_bytes = json.dumps(
            serial_result.to_artifact(), sort_keys=True
        ).encode()
        fanned_bytes = json.dumps(
            fanned.to_artifact(), sort_keys=True
        ).encode()
        assert serial_bytes == fanned_bytes

    def test_plan_runs_inline_at_jobs_2(self, plan, serial_result, monkeypatch):
        """Its specs cost less than a round trip to a worker: no pool."""
        monkeypatch.setattr(faults, "_WorkerExecutor", None)  # not callable
        inline = run_sweep(plan.specs, root_seed=plan.seed, jobs=2)
        assert inline.summaries == serial_result.summaries

    def test_warm_cache_rerun_executes_nothing(
        self, plan, serial_result, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(plan.specs, root_seed=plan.seed, cache=cache)
        assert cold.executed == len(plan.specs)
        warm = run_sweep(plan.specs, root_seed=plan.seed, cache=cache)
        assert warm.executed == 0
        assert warm.cached == len(plan.specs)
        assert warm.to_artifact() == cold.to_artifact()
        assert warm.to_artifact() == serial_result.to_artifact()

    def test_frontier_matches_golden(self, plan, serial_result):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        artifact = serial_result.to_artifact()
        computed = {
            "schema": artifact["schema"],
            "name": plan.name,
            "root_seed": artifact["root_seed"],
            "num_specs": artifact["num_specs"],
            "frontier": compute_frontier(
                serial_result.specs, serial_result.summaries, plan.frontier
            ),
        }
        assert json.dumps(computed, sort_keys=True) == json.dumps(
            golden, sort_keys=True
        )
