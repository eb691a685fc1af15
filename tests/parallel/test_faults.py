"""Fault-injection suite: the engine survives crashes, hangs, and bad
payloads without losing determinism.

The acceptance bar (ISSUE 4): with faults injected on <= 30% of trials
and a retry budget of 2, a ``jobs=4`` run completes with payloads
byte-identical to an undisturbed serial run — retries reuse the trial's
seed, so recovery is invisible in the results.  Each fault mode is also
driven to *final* failure to pin the structured attribution
(``TrialFailure`` kind, attempts, and the reproducing
``(experiment_id, index, seed)`` in the raised error).
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.parallel import (
    ExcessiveFailuresError,
    FailurePolicy,
    FaultPlan,
    InjectedFault,
    TrialEngine,
    TrialExecutionError,
    TrialMetricsCollector,
    inject,
)

from ..conftest import make_trials

EXPERIMENT = "faultsuite"
TRIAL_COUNT = 12

#: Hang trials sleep this long; the reaping tests use a much shorter
#: per-trial timeout, so a hang always presents as a hung worker.
HANG_SECONDS = 8.0
TRIAL_TIMEOUT = 2.0


def seeded_payload(trial):
    """Deterministic payload drawn entirely from the trial's seed."""
    rng = random.Random(trial.seed)
    return {
        "index": trial.index,
        "seed": trial.seed,
        "draws": [rng.random() for _ in range(4)],
    }


def _trials():
    return make_trials(EXPERIMENT, 0, count=TRIAL_COUNT)


@pytest.fixture(scope="module")
def baseline():
    """Undisturbed serial payloads — the byte-identity reference."""
    return TrialEngine(jobs=1, collector=TrialMetricsCollector()).run(
        seeded_payload, _trials()
    ).payloads


class TestFailurePolicyValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(mode="retry-forever")

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(trial_timeout=0.0)

    def test_max_failures_requires_skip_mode(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(mode="raise", max_failures=3)

    def test_strict_default(self):
        policy = FailurePolicy.strict()
        assert policy.mode == "raise"
        assert policy.retries == 0
        assert policy.trial_timeout is None
        assert policy.attempts_per_trial == 1


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        first = FaultPlan.seeded(7, TRIAL_COUNT)
        second = FaultPlan.seeded(7, TRIAL_COUNT)
        assert first == second

    def test_seeded_respects_fraction(self):
        plan = FaultPlan.seeded(7, TRIAL_COUNT, fraction=0.3)
        assert 0 < len(plan.faulty_indices()) <= int(TRIAL_COUNT * 0.3)

    def test_seeded_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.seeded(7, TRIAL_COUNT, modes=("error", "segfault"))

    def test_seeded_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.seeded(7, TRIAL_COUNT, fraction=1.5)


class TestByteIdenticalRecovery:
    """The headline acceptance test: injected faults + retries == clean run."""

    def test_mixed_faults_recover_bit_identically(self, baseline):
        plan = FaultPlan.seeded(
            seed=7,
            count=TRIAL_COUNT,
            fraction=0.3,
            modes=("error", "crash", "hang", "corrupt"),
            recover_after=1,
            hang_seconds=HANG_SECONDS,
        )
        assert plan.faulty_indices(), "the plan must actually fault something"
        collector = TrialMetricsCollector()
        engine = TrialEngine(
            jobs=4,
            collector=collector,
            policy=FailurePolicy(
                mode="raise", retries=2, trial_timeout=TRIAL_TIMEOUT
            ),
        )
        payloads = engine.run(inject(seeded_payload, plan), _trials()).payloads
        assert payloads == baseline
        assert collector.failures == ()
        assert collector.executed(EXPERIMENT) == TRIAL_COUNT

    def test_serial_error_recovery_matches_parallel(self, baseline):
        plan = FaultPlan(error=(2, 5), recover_after=1)
        policy = FailurePolicy(mode="raise", retries=1)
        serial = TrialEngine(
            jobs=1, collector=TrialMetricsCollector(), policy=policy
        ).run(inject(seeded_payload, plan), _trials()).payloads
        parallel = TrialEngine(
            jobs=3, collector=TrialMetricsCollector(), policy=policy
        ).run(inject(seeded_payload, plan), _trials()).payloads
        assert serial == baseline
        assert parallel == baseline

    def test_crash_recovery(self, baseline):
        plan = FaultPlan(crash=(4,), recover_after=1)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=1),
        )
        assert engine.run(inject(seeded_payload, plan), _trials()).payloads == baseline

    def test_hung_worker_recovery(self, baseline):
        plan = FaultPlan(
            hang=(3,), recover_after=1, hang_seconds=HANG_SECONDS
        )
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(
                mode="raise", retries=1, trial_timeout=TRIAL_TIMEOUT
            ),
        )
        assert engine.run(inject(seeded_payload, plan), _trials()).payloads == baseline

    def test_corrupt_payload_recovery(self, baseline):
        plan = FaultPlan(corrupt=(6,), recover_after=1)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=1),
        )
        assert engine.run(inject(seeded_payload, plan), _trials()).payloads == baseline


class TestFinalFailureAttribution:
    """Faults that never recover surface with full structured context."""

    def test_raise_mode_names_the_reproducing_trial(self):
        trials = _trials()
        plan = FaultPlan(error=(4,), recover_after=99)
        engine = TrialEngine(
            jobs=1,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=1),
        )
        with pytest.raises(TrialExecutionError) as excinfo:
            engine.run(inject(seeded_payload, plan), trials)
        failure = excinfo.value.failure
        assert failure.experiment_id == EXPERIMENT
        assert failure.index == 4
        assert failure.seed == trials[4].seed
        assert failure.kind == "error"
        assert failure.attempts == 2
        message = str(excinfo.value)
        assert "index=4" in message and f"seed={trials[4].seed}" in message
        # Serial execution chains the live exception.
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_pool_failure_chains_the_remote_traceback(self):
        plan = FaultPlan(error=(1,), recover_after=99)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=0),
        )
        with pytest.raises(TrialExecutionError) as excinfo:
            engine.run(inject(seeded_payload, plan), _trials())
        assert excinfo.value.__cause__ is not None
        assert "InjectedFault" in excinfo.value.failure.traceback_text

    def test_timeout_failure_kind(self):
        plan = FaultPlan(
            hang=(0,), recover_after=99, hang_seconds=HANG_SECONDS
        )
        collector = TrialMetricsCollector()
        engine = TrialEngine(
            jobs=2,
            collector=collector,
            policy=FailurePolicy(
                mode="raise", retries=0, trial_timeout=TRIAL_TIMEOUT
            ),
        )
        with pytest.raises(TrialExecutionError) as excinfo:
            engine.run(inject(seeded_payload, plan), _trials())
        assert excinfo.value.failure.kind == "timeout"
        assert collector.failed(EXPERIMENT) == 1

    def test_worker_death_failure_kind(self):
        plan = FaultPlan(crash=(2,), recover_after=99)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=0),
        )
        with pytest.raises(TrialExecutionError) as excinfo:
            engine.run(inject(seeded_payload, plan), _trials())
        assert excinfo.value.failure.kind == "worker-death"

    def test_corrupt_payload_failure_kind(self):
        plan = FaultPlan(corrupt=(3,), recover_after=99)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=0),
        )
        with pytest.raises(TrialExecutionError) as excinfo:
            engine.run(inject(seeded_payload, plan), _trials())
        assert excinfo.value.failure.kind == "payload"


class TestSkipMode:
    def test_partial_results_with_holes(self, baseline):
        plan = FaultPlan(error=(2, 8), recover_after=99)
        engine = TrialEngine(
            jobs=3,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="skip", retries=0, max_failures=2),
        )
        batch = engine.run(inject(seeded_payload, plan), _trials())
        assert batch.failed_indices == frozenset({2, 8})
        assert batch.payloads[2] is None and batch.payloads[8] is None
        survivors = [
            payload
            for index, payload in enumerate(batch.payloads)
            if index not in (2, 8)
        ]
        assert survivors == [
            payload for index, payload in enumerate(baseline) if index not in (2, 8)
        ]
        assert not batch.ok
        assert "2 failed" in batch.summary()

    def test_budget_exceeded_names_every_failed_trial(self):
        # max_failures=2 only trips once all three victims have failed,
        # so the error's roster is deterministic (an earlier abort would
        # depend on which failure the scheduler surfaced first).
        trials = _trials()
        plan = FaultPlan(error=(0, 4, 9), recover_after=99)
        engine = TrialEngine(
            jobs=3,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="skip", retries=0, max_failures=2),
        )
        with pytest.raises(ExcessiveFailuresError) as excinfo:
            engine.run(inject(seeded_payload, plan), trials)
        assert {f.index for f in excinfo.value.failures} == {0, 4, 9}
        message = str(excinfo.value)
        for index in (0, 4, 9):
            assert f"({EXPERIMENT}, {index}, {trials[index].seed})" in message

    def test_unbounded_skip_never_raises(self):
        plan = FaultPlan(error=tuple(range(TRIAL_COUNT)), recover_after=99)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="skip", retries=0),
        )
        batch = engine.run(inject(seeded_payload, plan), _trials())
        assert batch.completed() == {}
        assert len(batch.failures) == TRIAL_COUNT


class TestMetricsIntegration:
    def test_failures_flow_into_the_collector_summary(self):
        plan = FaultPlan(error=(1,), recover_after=99)
        collector = TrialMetricsCollector()
        engine = TrialEngine(
            jobs=1,
            collector=collector,
            policy=FailurePolicy(mode="skip", retries=1),
        )
        engine.run(inject(seeded_payload, plan), _trials())
        assert collector.failed(EXPERIMENT) == 1
        assert collector.failures[0].attempts == 2
        assert collector.summary()["failures"] == 1
        assert "1 failure(s)" in collector.format_summary()

    def test_recovered_trials_are_not_failures(self):
        plan = FaultPlan(error=(1,), recover_after=1)
        collector = TrialMetricsCollector()
        engine = TrialEngine(
            jobs=1,
            collector=collector,
            policy=FailurePolicy(mode="raise", retries=1),
        )
        engine.run(inject(seeded_payload, plan), _trials())
        assert collector.failures == ()
        assert collector.executed(EXPERIMENT) == TRIAL_COUNT
