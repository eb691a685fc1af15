"""Worker dispatch: every fault is charged to the trial its worker held.

The engine owns its worker processes and sends a trial only to an idle
worker, so it always knows which trial each worker holds.  These tests
pin, on real workers, what that design must keep: a trial waiting to
be sent is never timed out, while a hung trial still is; a timeout or
a death charges only its own trial and replaces only its own worker,
and healthy workers are never replaced; a result that has landed is never
charged, even when its deadline passes or its worker dies before the
parent reads it; an unpicklable payload fails only its own trial; a
dead idle worker is replaced before a trial is sent to it; the batch
runs with more workers than cores; and no worker outlives its batch,
however the batch ends.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time

import pytest

from repro.parallel import (
    ExcessiveFailuresError,
    FailurePolicy,
    Trial,
    TrialEngine,
    TrialExecutionError,
    TrialMetricsCollector,
)

from ..conftest import make_trials
from .injection import CRASH_EXIT_CODE, FaultPlan, inject

EXPERIMENT = "dispatchsuite"

#: The first ``SLOW_COUNT`` trials sleep ``SLOW_SECONDS`` each: two
#: rounds on two workers, so the trials sent after them wait about
#: 1.4 s to be sent, longer than ``TRIAL_TIMEOUT``.
SLOW_COUNT = 4
SLOW_SECONDS = 0.7
TRIAL_TIMEOUT = 1.0

#: How long after sending trial 1's result its worker exits.
EXIT_DELAY = 0.1


def seeded_payload(trial):
    rng = random.Random(trial.seed)
    return {"index": trial.index, "draws": [rng.random() for _ in range(3)]}


def slow_start_payload(trial):
    if trial.index < SLOW_COUNT:
        time.sleep(SLOW_SECONDS)
    return seeded_payload(trial)


def noop_payload(trial):
    return trial.index


def second_lags(trial):
    """Trial 1 lands a little after trial 0."""
    if trial.index == 1:
        time.sleep(SLOW_SECONDS / 4)
    return seeded_payload(trial)


def exits_after_sending(trial):
    """Trial 1's worker exits just after sending its result back."""
    if trial.index == 1:
        threading.Timer(EXIT_DELAY, os._exit, (CRASH_EXIT_CODE,)).start()
    return seeded_payload(trial)


def pid_payload(trial):
    return {"index": trial.index, "pid": os.getpid()}


def _engine(jobs, policy=None):
    return TrialEngine(jobs=jobs, collector=TrialMetricsCollector(), policy=policy)


class TestDeadlinesStartAtPickup:
    def test_queued_trials_do_not_time_out(self):
        trials = make_trials(EXPERIMENT, 0, count=12)
        serial = _engine(1).run(slow_start_payload, trials).payloads
        batch = _engine(
            2, FailurePolicy(mode="skip", trial_timeout=TRIAL_TIMEOUT)
        ).run(slow_start_payload, trials)
        assert [f for f in batch.failures if f.kind == "timeout"] == []
        assert batch.payloads == serial

    def test_hung_queued_trial_still_times_out(self, tmp_path):
        trials = make_trials(EXPERIMENT, 0, count=12)
        plan = FaultPlan(hang=(6,), recover_after=99, hang_seconds=8.0)
        with pytest.raises(TrialExecutionError) as excinfo:
            _engine(2, FailurePolicy(trial_timeout=TRIAL_TIMEOUT)).run(
                inject(slow_start_payload, plan, tmp_path), trials
            )
        assert excinfo.value.failure.kind == "timeout"
        assert excinfo.value.failure.index == 6


class TestWakeOnLanding:
    def test_stress_more_workers_than_cores(self):
        """Every landing is read: a lost result would leave the batch
        waiting forever, so the run is bounded by a join timeout."""
        count = 512
        result = {}

        def run():
            result["payloads"] = _engine((os.cpu_count() or 1) + 1).run(
                noop_payload, make_trials(EXPERIMENT, 0, count=count)
            ).payloads

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "the batch never finished"
        assert result["payloads"] == tuple(range(count))


class TestWorkerDeathAttribution:
    def test_announced_victim_is_charged_alone(self, tmp_path):
        # Trial 3's worker dies: only trial 3 is charged, and at most its
        # worker is replaced (not at all if the other worker finished
        # the rest first), so at most three processes run the batch.
        trials = make_trials(EXPERIMENT, 0, count=8)
        collector = TrialMetricsCollector()
        plan = FaultPlan(crash=(3,), recover_after=99)
        batch = TrialEngine(
            jobs=2, collector=collector, policy=FailurePolicy(mode="skip")
        ).run(inject(seeded_payload, plan, tmp_path), trials)
        (failure,) = batch.failures
        assert (failure.index, failure.kind) == (3, "worker-death")
        workers = {record.worker for record in collector.records}
        assert len(workers | {failure.worker}) <= 3

    def test_live_pool_is_left_alone(self):
        collector = TrialMetricsCollector()
        TrialEngine(jobs=2, collector=collector).run(
            noop_payload, make_trials(EXPERIMENT, 0, count=16)
        )
        assert len({record.worker for record in collector.records}) == 2


class TestChunkAttribution:
    """A fault is charged to the one trial its worker held; every other
    trial runs uncharged, and one whose result has landed is kept."""

    def test_death_charges_the_announced_trial_and_requeues_its_mates(
        self, tmp_path
    ):
        trials = make_trials(EXPERIMENT, 0, count=8)
        plan = FaultPlan(crash=(2,), recover_after=99)
        batch = _engine(2, FailurePolicy(mode="skip")).run(
            inject(seeded_payload, plan, tmp_path), trials
        )
        (failure,) = batch.failures
        assert (failure.index, failure.kind, failure.attempts) == (
            2,
            "worker-death",
            1,
        )
        assert f"exitcode {CRASH_EXIT_CODE}" in failure.message
        assert failure.worker not in (None, os.getpid())
        assert batch.completed() == {
            t.index: seeded_payload(t) for t in trials if t.index != 2
        }

    def test_timeout_charges_the_running_trial_alone(self, tmp_path):
        trials = make_trials(EXPERIMENT, 0, count=6)
        plan = FaultPlan(hang=(1,), recover_after=99, hang_seconds=8.0)
        batch = _engine(
            2, FailurePolicy(mode="skip", trial_timeout=TRIAL_TIMEOUT)
        ).run(inject(seeded_payload, plan, tmp_path), trials)
        (failure,) = batch.failures
        assert (failure.index, failure.kind) == (1, "timeout")
        assert failure.worker not in (None, os.getpid())
        assert batch.completed() == {
            t.index: seeded_payload(t) for t in trials if t.index != 1
        }

    def test_unpicklable_payload_is_charged_to_its_trial(self, tmp_path):
        trials = make_trials(EXPERIMENT, 0, count=2)
        plan = FaultPlan(corrupt=(0,), recover_after=99)
        batch = _engine(2, FailurePolicy(mode="skip")).run(
            inject(seeded_payload, plan, tmp_path), trials
        )
        (failure,) = batch.failures
        assert (failure.index, failure.kind) == (0, "payload")
        assert failure.worker not in (None, os.getpid())
        assert batch.completed() == {1: seeded_payload(trials[1])}

    def test_landed_result_is_not_charged_for_a_timeout(self):
        # Trial 1's result lands before its deadline, but the parent
        # reads it only after storing trial 0, which outlasts that
        # deadline.
        def slow_store(trial, payload):
            if trial.index == 0:
                time.sleep(1.5 * TRIAL_TIMEOUT)

        trials = make_trials(EXPERIMENT, 0, count=2)
        batch = _engine(
            2, FailurePolicy(mode="skip", trial_timeout=TRIAL_TIMEOUT)
        ).run(second_lags, trials, on_success=slow_store)
        assert batch.failures == ()
        assert batch.payloads == tuple(seeded_payload(t) for t in trials)

    def test_landed_result_is_not_charged_for_its_workers_death(self):
        # Trial 1's worker sends its result, then exits while the parent
        # is still storing trial 0.
        def slow_store(trial, payload):
            if trial.index == 0:
                time.sleep(5 * EXIT_DELAY)

        trials = make_trials(EXPERIMENT, 0, count=2)
        batch = _engine(2, FailurePolicy(mode="skip")).run(
            exits_after_sending, trials, on_success=slow_store
        )
        assert batch.failures == ()
        assert batch.payloads == tuple(seeded_payload(t) for t in trials)


class TestChunkedPool:
    def test_corrupt_payload_fails_only_its_own_trial(self, tmp_path):
        trials = make_trials(EXPERIMENT, 0, count=128)
        victim = 64
        plan = FaultPlan(corrupt=(victim,), recover_after=99)
        batch = _engine(2, FailurePolicy(mode="skip")).run(
            inject(seeded_payload, plan, tmp_path), trials
        )
        (failure,) = batch.failures
        assert (failure.index, failure.kind, failure.attempts) == (
            victim,
            "payload",
            1,
        )
        assert [p for i, p in enumerate(batch.payloads) if i != victim] == [
            seeded_payload(t) for t in trials if t.index != victim
        ]


class TestWorkerLifecycle:
    def test_dead_idle_worker_is_replaced_before_a_send(self):
        # Trial 0's worker is killed once its result is in: idle and
        # dead when the next trial is sent.
        killed = []

        def kill_first(trial, payload):
            if trial.index == 0:
                os.kill(payload["pid"], signal.SIGKILL)
                killed.append(payload["pid"])
                time.sleep(5 * EXIT_DELAY)

        trials = make_trials(EXPERIMENT, 0, count=4)
        batch = _engine(2, FailurePolicy(mode="skip")).run(
            pid_payload, trials, on_success=kill_first
        )
        assert batch.failures == ()
        assert [p["index"] for p in batch.payloads] == [0, 1, 2, 3]
        assert killed[0] not in {p["pid"] for p in batch.payloads[2:]}


def _clean(tmp_path):
    _engine(2).run(noop_payload, make_trials(EXPERIMENT, 0, count=8))


def _raise_abort(tmp_path):
    plan = FaultPlan(error=(0,), recover_after=99)
    with pytest.raises(TrialExecutionError):
        _engine(2).run(
            inject(slow_start_payload, plan, tmp_path),
            make_trials(EXPERIMENT, 0, count=8),
        )


def _on_success_raises(tmp_path):
    def boom(trial, payload):
        raise RuntimeError("store failed")

    with pytest.raises(RuntimeError, match="store failed"):
        _engine(2).run(
            slow_start_payload, make_trials(EXPERIMENT, 0, count=8), on_success=boom
        )


def _timeout_kill(tmp_path):
    plan = FaultPlan(hang=(0,), recover_after=99, hang_seconds=8.0)
    batch = _engine(2, FailurePolicy(mode="skip", trial_timeout=TRIAL_TIMEOUT)).run(
        inject(noop_payload, plan, tmp_path), make_trials(EXPERIMENT, 0, count=4)
    )
    assert [f.kind for f in batch.failures] == ["timeout"]


def _excessive_failures(tmp_path):
    plan = FaultPlan(error=(0,), recover_after=99)
    with pytest.raises(ExcessiveFailuresError):
        _engine(2, FailurePolicy(mode="skip", max_failures=0)).run(
            inject(slow_start_payload, plan, tmp_path),
            make_trials(EXPERIMENT, 0, count=8),
        )


def _unsendable_trial(tmp_path):
    trials = make_trials(EXPERIMENT, 0, count=2)
    trials[1] = Trial(EXPERIMENT, 1, 1, (("fn", lambda: None),))
    with pytest.raises(Exception, match="pickle"):
        _engine(2).run(noop_payload, trials)


@pytest.mark.parametrize(
    "ending",
    [
        _clean,
        _raise_abort,
        _on_success_raises,
        _timeout_kill,
        _excessive_failures,
        _unsendable_trial,
    ],
    ids=lambda ending: ending.__name__.lstrip("_"),
)
def test_no_worker_outlives_its_batch(ending, tmp_path):
    ending(tmp_path)
    assert multiprocessing.active_children() == []
