"""Sweep driver determinism, caching, and the frontier reduction.

The heart of this module is the acceptance triangle: a 64-spec sweep
is bit-identical inline and over a 4-worker pool, a warm re-run
executes zero trials, and the warm artifact equals the cold one byte
for byte.  The cache-collision regression pins that sweep cache keys
carry the full spec digest, so two specs differing in any single field
can never share an entry.  The streamed-store tests pin that results
are cached as they land: the cache a cold sweep leaves is the same at
any ``jobs``, each success is stored once, and a sweep that aborts
keeps what finished before the failure.  The fan-out tests pin which
sweeps use the pool at all: cheap specs run inline whatever ``jobs``
says, while heavy specs or a trial timeout send them to workers.  Those
specs are cheap, so every pooled comparison here sets a trial timeout.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.parallel import (
    METRICS,
    FailurePolicy,
    ResultCache,
    TrialEngine,
    TrialExecutionError,
    TrialMetricsCollector,
)
from repro.scenarios import ScenarioSpec
from repro.sweeps import (
    SWEEP_EXPERIMENT_ID,
    compute_frontier,
    expand_grid,
    load_specfile,
    run_sweep,
    sample_random,
    sweep_seed,
)
from repro.parallel import faults
from repro.sweeps import driver
from repro.sweeps.driver import _POOL_NODE_STEPS, _fans_out, _sweep_worker

from ..conftest import make_trials
from ..parallel.injection import FaultPlan, inject

BASE = {
    "topology": "grid",
    "size": 3,
    "steps": 6,
    "steps_per_block": 3,
    "sample_every": 3,
}


#: Only a worker process can enforce a trial timeout, so a sweep under
#: this policy runs in the pool however cheap its specs are.
POOLED = FailurePolicy(trial_timeout=60)


def _sweep(specs, jobs, **kwargs):
    """``run_sweep`` at ``jobs``, pooled (under ``POOLED``) when ``jobs > 1``.

    Checks where its trials ran, also when it raises: all in this
    process at ``jobs=1``, at least one in a worker otherwise.
    """
    before = len(METRICS.records)
    try:
        return driver.run_sweep(
            specs, jobs=jobs, policy=POOLED if jobs > 1 else None, **kwargs
        )
    finally:
        workers = {record.worker for record in METRICS.records[before:]}
        assert bool(workers - {os.getpid()}) == (jobs > 1), workers


def _grid64():
    return expand_grid(
        BASE,
        {
            "attacker_share": [0.1, 0.2, 0.3, 0.4],
            "failure_rate": [0.0, 0.1, 0.2, 0.3],
            "natural_fork_rate": [0.05, 0.1, 0.15, 0.2],
        },
    )


class TestDeterminism:
    def test_jobs_4_matches_serial_over_64_specs(self):
        specs = _grid64()
        assert len(specs) == 64
        serial = run_sweep(specs, root_seed=11, jobs=1)
        fanned = _sweep(specs, 4, root_seed=11)
        assert serial.summaries == fanned.summaries
        assert json.dumps(serial.to_artifact(), sort_keys=True) == json.dumps(
            fanned.to_artifact(), sort_keys=True
        )

    def test_seeds_derive_from_content_not_position(self):
        specs = _grid64()[:4]
        full = run_sweep(specs, root_seed=5)
        sliced = run_sweep(list(reversed(specs))[:2], root_seed=5)
        by_digest = {
            spec.digest(): summary
            for spec, summary in zip(full.specs, full.summaries)
        }
        for spec, summary in zip(sliced.specs, sliced.summaries):
            assert summary == by_digest[spec.digest()]
        for spec in specs:
            assert sweep_seed(5, spec) != sweep_seed(6, spec)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep([])


class TestCaching:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        specs = _grid64()[:8]
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(specs, root_seed=3, cache=cache)
        assert cold.executed == 8 and cold.cached == 0
        warm = run_sweep(specs, root_seed=3, cache=cache, jobs=4)
        assert warm.executed == 0 and warm.cached == 8
        assert cache.hits == 8
        assert warm.summaries == cold.summaries
        # Run facts differ; the artifact must not.
        assert cold.to_artifact() == warm.to_artifact()

    def test_cache_key_includes_full_spec_digest(self, tmp_path):
        """Regression: specs differing in one field never share an entry.

        Sweep trials all run under one experiment id and (often) equal
        step counts — a cache key built from anything less than the
        full spec digest would alias them.
        """
        cache = ResultCache(tmp_path / "cache")
        base = ScenarioSpec.from_dict(dict(BASE))
        variants = [
            dataclasses.replace(base, attacker_share=0.4),
            dataclasses.replace(base, hash_schedule=((2, 0.45),)),
            dataclasses.replace(base, failure_schedule=((2, 0.25),)),
            dataclasses.replace(base, sample_every=2),
        ]
        result = run_sweep([base] + variants, root_seed=0, cache=cache)
        assert result.executed == len(variants) + 1
        assert cache.stores == len(variants) + 1
        # Each variant warms only its own entry.
        for spec in variants:
            solo = run_sweep([spec], root_seed=0, cache=cache)
            assert solo.cached == 1 and solo.executed == 0
        digests = {spec.digest() for spec in [base] + variants}
        assert len(digests) == len(variants) + 1

    def test_root_seed_partitions_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = ScenarioSpec.from_dict(dict(BASE))
        run_sweep([spec], root_seed=0, cache=cache)
        other = run_sweep([spec], root_seed=1, cache=cache)
        assert other.executed == 1 and other.cached == 0


def _boom(trial):  # pragma: no cover - runs in workers
    raise RuntimeError("boom")


#: Position of the spec :func:`_fail_doomed` refuses to run.
DOOMED = 3


def _fail_doomed(trial):
    """Sweep worker that fails on spec ``DOOMED`` (picklable for pools)."""
    if trial.index == DOOMED:
        raise RuntimeError("injected")
    return _sweep_worker(trial)


def _indexed(trial):
    return {"index": trial.index, "seed": trial.seed}


def _cache_entries(directory):
    """Key -> envelope for every entry name in ``directory``.

    Which specs share a pack follows landing order, so the raw pack
    bytes may differ across ``jobs``; each key's envelope may not.
    """
    entries = {}
    for path in sorted(directory.iterdir()):
        assert path.suffix == ".json", f"stray file {path.name}"
        entries[path.stem] = json.loads(path.read_bytes())["entries"][path.stem]
    return entries


class TestSerialization:
    def test_each_spec_is_serialized_once_per_sweep(self, monkeypatch):
        """A spec's digest and its trial params come from one canonical string."""
        serialized = []
        real_to_dict = ScenarioSpec.to_dict

        def counting_to_dict(spec):
            serialized.append(spec)
            return real_to_dict(spec)

        monkeypatch.setattr(ScenarioSpec, "to_dict", counting_to_dict)
        # A stub body keeps the worker's own summary digest out of the count.
        monkeypatch.setattr(driver, "run_scenario", lambda spec, seed: {"seed": seed})
        specs = _grid64()[:8]
        result = driver.run_sweep(specs, root_seed=2)
        assert result.executed == len(specs)
        assert len(serialized) == len(specs)

    def test_digest_of_the_canonical_form_is_the_digest(self):
        spec = _grid64()[5]
        assert ScenarioSpec.digest_of(spec.canonical_json()) == spec.digest()


class TestStreamedStores:
    def test_cold_cache_is_identical_across_jobs(self, tmp_path):
        specs = _grid64()
        for jobs in (1, 2):
            _sweep(specs, jobs, root_seed=7, cache=ResultCache(tmp_path / f"j{jobs}"))
        serial = _cache_entries(tmp_path / "j1")
        assert len(serial) == len(specs)
        assert _cache_entries(tmp_path / "j2") == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_sweep_creates_one_file_per_pack(self, jobs, tmp_path):
        from repro.parallel.cache import _PACK_ENTRIES

        specs = _grid64()
        directory = tmp_path / "cache"
        _sweep(specs, jobs, root_seed=7, cache=ResultCache(directory))
        names = list(directory.glob("*.json"))
        assert len(names) == len(specs)
        inodes = {path.stat().st_ino for path in names}
        assert len(inodes) <= math.ceil(len(specs) / _PACK_ENTRIES)

    def test_corrupt_pack_recomputes_its_specs_only(self, tmp_path):
        specs = _grid64()[:16]
        cache = ResultCache(tmp_path / "cache")
        run_sweep(specs[:8], root_seed=1, cache=cache)  # one pack each
        run_sweep(specs[8:], root_seed=1, cache=cache)
        first = specs[0]
        # Writing through one name rewrites the file all its pack-mates name.
        cache.entry_path(
            SWEEP_EXPERIMENT_ID, {"spec_digest": first.digest()}, sweep_seed(1, first)
        ).write_text("{not json", encoding="utf-8")
        rerun = run_sweep(specs, root_seed=1, cache=cache)
        assert (rerun.executed, rerun.cached) == (8, 8)
        assert cache.corrupt_entries == 8
        assert rerun.summaries == run_sweep(specs, root_seed=1).summaries
        warm = run_sweep(specs, root_seed=1, cache=cache)
        assert (warm.executed, warm.cached) == (0, 16)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_success_fires_once_per_success(self, jobs, tmp_path):
        # 2 and 5 fail once and recover; 7 never recovers.
        plan = FaultPlan(error=(2, 5, 7), recover_after=1)
        flaky = inject(_indexed, FaultPlan(error=(7,), recover_after=99), tmp_path)
        calls = []
        collector = TrialMetricsCollector()
        engine = TrialEngine(
            jobs=jobs,
            collector=collector,
            policy=FailurePolicy(mode="skip", retries=1),
        )
        batch = engine.run(
            inject(flaky, plan, tmp_path),
            make_trials("streamed", 0, count=12),
            on_success=lambda trial, payload: calls.append((trial.index, payload)),
        )
        assert batch.failed_indices == frozenset({7})
        assert sorted(calls) == sorted(batch.completed().items())
        assert len(calls) == 11
        workers = {record.worker for record in collector.records}
        assert (workers == {os.getpid()}) == (jobs == 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_keeps_what_finished_and_rerun_runs_the_rest(
        self, jobs, tmp_path, monkeypatch
    ):
        specs = _grid64()[:8]
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(driver, "_sweep_worker", _fail_doomed)
        with pytest.raises(TrialExecutionError):
            _sweep(specs, jobs, root_seed=1, cache=cache)
        stored = cache.stores
        if jobs == 1:
            # Inline execution stops at the failure: everything before it.
            assert stored == DOOMED
        monkeypatch.setattr(driver, "_sweep_worker", _sweep_worker)
        rerun = _sweep(specs, jobs, root_seed=1, cache=cache)
        assert rerun.cached == stored
        assert rerun.executed == len(specs) - stored
        assert rerun.summaries == run_sweep(specs, root_seed=1).summaries


@pytest.fixture
def pools(monkeypatch):
    """Records each worker executor built; its batch then runs inline."""
    built = []

    def spy(fn, batch, jobs, policy, on_success):
        built.append(jobs)
        return SimpleNamespace(
            run=lambda: faults._run_serial(fn, batch, policy, on_success)
        )

    monkeypatch.setattr(faults, "_WorkerExecutor", spy)
    return built


def _heavy(count):
    """Power-law specs of exactly ``_POOL_NODE_STEPS`` node-steps each."""
    base = ScenarioSpec(topology="power_law", num_nodes=1000, steps=100)
    assert base.total_nodes * base.steps == _POOL_NODE_STEPS
    return [
        dataclasses.replace(base, attacker_share=0.1 * (i + 1)) for i in range(count)
    ]


class TestFanOut:
    def test_specs_at_the_threshold_fan_out(self, pools):
        run_sweep(_heavy(2), root_seed=0, jobs=2)
        assert pools == [2]

    def test_a_trial_timeout_fans_out_cheap_specs(self, pools):
        run_sweep(_grid64()[:4], root_seed=0, jobs=2, policy=POOLED)
        assert pools == [2]

    def test_the_rule_reads_the_mean_work(self):
        heavy, cheap = _heavy(1)[0], _grid64()[0]
        lighter = dataclasses.replace(heavy, steps=heavy.steps - 1)
        assert _fans_out([heavy], None)
        assert not _fans_out([lighter], None)
        assert not _fans_out([heavy, cheap], None)
        doubled = dataclasses.replace(heavy, steps=2 * heavy.steps)
        assert _fans_out([doubled, cheap], None)
        assert _fans_out([cheap], POOLED)

    def test_cached_heavy_specs_leave_cheap_ones_inline(self, pools, tmp_path):
        heavy = _heavy(2)
        cache = ResultCache(tmp_path / "cache")
        run_sweep(heavy, root_seed=0, jobs=1, cache=cache)
        mixed = run_sweep(heavy + _grid64()[:2], root_seed=0, jobs=2, cache=cache)
        assert (mixed.cached, mixed.executed) == (2, 2)
        assert pools == []


class TestFailures:
    def test_skip_policy_leaves_none_and_records_failure(self, monkeypatch):
        specs = _grid64()[:3]
        doomed = specs[1].digest()

        def flaky(trial):
            spec = ScenarioSpec.from_dict(json.loads(trial.param("spec")))
            if spec.digest() == doomed:
                raise RuntimeError("injected")
            return driver.run_scenario(spec, seed=trial.seed)

        monkeypatch.setattr(driver, "_sweep_worker", flaky)
        result = driver.run_sweep(
            specs,
            policy=FailurePolicy(mode="skip"),
        )
        assert result.failed == 1
        (failure,) = result.failures
        assert failure[0] == 1
        assert result.summaries[1] is None
        assert result.summaries[0] is not None
        assert result.executed == 2

    def test_artifact_carries_null_summary_for_failures(self, monkeypatch):
        monkeypatch.setattr(driver, "_sweep_worker", _boom)
        result = driver.run_sweep(
            _grid64()[:2], policy=FailurePolicy(mode="skip")
        )
        artifact = result.to_artifact()
        assert [entry["summary"] for entry in artifact["summaries"]] == [
            None,
            None,
        ]


class TestPlans:
    def test_expand_grid_is_deterministic_and_sorted(self):
        axes = {"failure_rate": [0.1, 0.2], "attacker_share": [0.3]}
        first = expand_grid(BASE, axes)
        second = expand_grid(BASE, dict(reversed(list(axes.items()))))
        assert [s.digest() for s in first] == [s.digest() for s in second]
        assert [s.failure_rate for s in first] == [0.1, 0.2]

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid(BASE, {"failure_rate": []})

    def test_sample_random_reproducible(self):
        axes = {
            "attacker_share": {"uniform": [0.05, 0.45]},
            "steps_per_block": {"int": [2, 5]},
        }
        a = sample_random(BASE, axes, count=16, seed=4)
        b = sample_random(BASE, axes, count=16, seed=4)
        assert [s.digest() for s in a] == [s.digest() for s in b]
        c = sample_random(BASE, axes, count=16, seed=5)
        assert [s.digest() for s in a] != [s.digest() for s in c]

    def test_load_specfile(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {
                    "base": BASE,
                    "grid": {"attacker_share": [0.2, 0.4]},
                    "seed": 9,
                }
            ),
            encoding="utf-8",
        )
        plan = load_specfile(path)
        assert plan.name == "plan"
        assert len(plan.specs) == 2
        assert plan.seed == 9

    def test_load_specfile_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"base": BASE, "turbo": True}))
        with pytest.raises(ConfigurationError):
            load_specfile(path)


class TestFrontier:
    def _sweep(self):
        specs = expand_grid(
            BASE,
            {
                "attacker_share": [0.1, 0.2, 0.3],
                "failure_rate": [0.0, 0.2],
            },
        )
        result = run_sweep(specs, root_seed=2)
        return specs, result.summaries

    def test_minimum_success_per_group(self):
        specs, summaries = self._sweep()
        records = compute_frontier(
            specs,
            summaries,
            {
                "vary": "attacker_share",
                "group_by": ["failure_rate"],
                "success": {
                    "metric": "peak_attacker_fraction",
                    "op": ">=",
                    "threshold": 0.0,
                },
            },
        )
        assert [r["group"]["failure_rate"] for r in records] == [0.0, 0.2]
        for record in records:
            assert record["tested"] == 3
            assert record["frontier"] == 0.1  # threshold 0 always succeeds

    def test_unreachable_threshold_yields_none(self):
        specs, summaries = self._sweep()
        records = compute_frontier(
            specs,
            summaries,
            {
                "vary": "attacker_share",
                "success": {
                    "metric": "peak_attacker_fraction",
                    "op": ">=",
                    "threshold": 2.0,
                },
            },
        )
        (record,) = records
        assert record["frontier"] is None
        assert record["succeeded"] == 0
        assert record["tested"] == 6

    def test_failed_specs_count_but_never_succeed(self):
        specs, summaries = self._sweep()
        summaries = list(summaries)
        summaries[0] = None
        (record,) = compute_frontier(
            specs,
            summaries,
            {
                "vary": "attacker_share",
                "success": {
                    "metric": "peak_attacker_fraction",
                    "op": ">=",
                    "threshold": 0.0,
                },
            },
        )
        assert record["tested"] == 6
        assert record["succeeded"] == 5

    def test_bad_frontier_blocks_rejected(self):
        specs, summaries = self._sweep()
        for frontier in [
            {},
            {"vary": "attacker_share"},
            {"vary": "attacker_share", "success": {"metric": "x"}},
            {
                "vary": "attacker_share",
                "success": {"metric": "x", "op": "~", "threshold": 1},
            },
            {
                "vary": "warp",
                "success": {
                    "metric": "peak_attacker_fraction",
                    "op": ">=",
                    "threshold": 0.0,
                },
            },
        ]:
            with pytest.raises(ConfigurationError):
                compute_frontier(specs, summaries, frontier)
