"""Seed-equivalence suite: parallelism must never perturb results.

The acceptance property for ``repro.parallel``: every registered
artifact, run in one ``run_artifacts`` batch over several workers,
equals its serial run with the same seed — same rows, same metrics,
same series — and trial payloads are independent of submission order
and worker count.
"""

import os
import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments import REGISTRY, run_artifacts, run_experiment
from repro.parallel import (
    METRICS,
    Trial,
    TrialEngine,
    TrialMetricsCollector,
    resolve_jobs,
)

from ..conftest import make_trials


def _draws_trial(trial):
    """Module-level (hence picklable) trial: a few seeded draws."""
    rng = random.Random(trial.seed)
    return {
        "index": trial.index,
        "draws": [rng.random() for _ in range(5)],
        "param": trial.param("tag"),
    }


def assert_results_equal(a, b):
    """Field-by-field equality with readable failure output."""
    assert a.experiment_id == b.experiment_id
    assert a.headers == b.headers
    assert a.rows == b.rows
    assert a.metrics == b.metrics
    assert sorted(a.series) == sorted(b.series)
    for name in a.series:
        assert list(a.series[name]) == list(b.series[name]), name
    assert a.notes == b.notes


def _fanned(seed, jobs):
    """All ``--fast`` artifacts as one uncached batch, plus the pids that ran them."""
    before = len(METRICS.records)
    batch = run_artifacts(sorted(REGISTRY), seed=seed, fast=True, jobs=jobs)
    pids = {record.worker for record in METRICS.records[before:]}
    return batch, pids


@pytest.fixture(scope="module")
def fanned_jobs4(fast_sweep):
    return _fanned(fast_sweep.seed, jobs=4)


class TestExperimentSeedEquivalence:
    @pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
    def test_jobs4_equals_serial(self, experiment_id, fast_sweep, fanned_jobs4):
        batch, pids = fanned_jobs4
        assert batch.failures == () and batch.cached == ()
        assert os.getpid() not in pids and len(pids) > 1
        serial = fast_sweep.results[experiment_id]
        assert_results_equal(serial, batch.results[experiment_id])
        assert batch.results[experiment_id].to_dict() == serial.to_dict()

    def test_jobs2_equals_serial_nonzero_seed(self):
        # A second seed guards against seed-0-only accidents (e.g. a
        # worker falling back to a default seed).
        serial, serial_pids = _fanned(7, jobs=1)
        fanned, pids = _fanned(7, jobs=2)
        assert serial_pids == {os.getpid()}
        assert os.getpid() not in pids and len(pids) == 2
        assert sorted(fanned.results) == sorted(REGISTRY)
        for experiment_id, result in serial.results.items():
            assert fanned.results[experiment_id].to_dict() == result.to_dict()


class TestEngineOrderIndependence:
    def test_map_returns_index_order_regardless_of_submission(self):
        trials = make_trials(
            "toy", 3, count=8, params=[{"tag": i} for i in range(8)]
        )
        engine = TrialEngine(jobs=3, collector=TrialMetricsCollector())
        forward = engine.run(_draws_trial, trials).payloads
        shuffled = list(trials)
        random.Random(1).shuffle(shuffled)
        scrambled = engine.run(_draws_trial, shuffled).payloads
        assert forward == scrambled
        assert [payload["index"] for payload in forward] == list(range(8))

    def test_serial_and_parallel_payloads_identical(self):
        trials = make_trials("toy", 5, count=6)
        serial = TrialEngine(jobs=1, collector=TrialMetricsCollector()).run(
            _draws_trial, trials
        ).payloads
        parallel = TrialEngine(jobs=4, collector=TrialMetricsCollector()).run(
            _draws_trial, trials
        ).payloads
        assert serial == parallel

    def test_duplicate_indices_rejected(self):
        trials = [Trial("toy", 0, 1), Trial("toy", 0, 2)]
        with pytest.raises(ConfigurationError):
            TrialEngine(collector=TrialMetricsCollector()).run(_draws_trial, trials)


class TestJobsValidation:
    @pytest.mark.parametrize("bad", [0, -1, -8, 1.5, "4", None, True])
    def test_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_jobs(bad)

    def test_run_experiment_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            run_experiment("table6", fast=True, jobs=0)
        with pytest.raises(ConfigurationError):
            run_experiment("table6", fast=True, jobs=-3)


class TestMetrics:
    def test_engine_records_per_trial_timings(self):
        collector = TrialMetricsCollector()
        trials = make_trials("toy", 0, count=4)
        TrialEngine(jobs=2, collector=collector).run(_draws_trial, trials)
        assert collector.executed("toy") == 4
        summary = collector.summary("toy")
        assert summary["trials"] == 4
        assert summary["workers"] >= 1
        assert summary["total_seconds"] >= 0.0
        assert {record.trial_index for record in collector.records} == {0, 1, 2, 3}

    def test_global_collector_is_default(self):
        before = METRICS.executed()
        TrialEngine(jobs=1).run(_draws_trial, make_trials("toy", 1, count=2))
        assert METRICS.executed() == before + 2
