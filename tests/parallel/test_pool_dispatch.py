"""Pool dispatch: the prefetch window, wake-on-landing, and attribution.

The pool executor keeps several attempts per worker queued in the
pool, wakes the moment a result lands instead of polling, and starts a
trial's timeout clock at pickup.  These tests pin what the window
could break: a queued trial is never timed out for waiting, the parent
loop sleeps through no landing result, a worker that dies before naming
its trial costs at most one attempt, and a stale announcement never
starts a retry's clock.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time

import pytest

from repro.parallel import (
    FailurePolicy,
    FaultPlan,
    TrialEngine,
    TrialExecutionError,
    TrialMetricsCollector,
    inject,
    make_trials,
)
from repro.parallel import faults

EXPERIMENT = "dispatchsuite"

#: The first ``SLOW_COUNT`` trials sleep ``SLOW_SECONDS`` each: two
#: rounds on two workers, so the trials queued behind them wait about
#: 1.4 s for pickup, longer than ``TRIAL_TIMEOUT``.
SLOW_COUNT = 4
SLOW_SECONDS = 0.7
TRIAL_TIMEOUT = 1.0


def seeded_payload(trial):
    rng = random.Random(trial.seed)
    return {"index": trial.index, "draws": [rng.random() for _ in range(3)]}


def slow_start_payload(trial):
    if trial.index < SLOW_COUNT:
        time.sleep(SLOW_SECONDS)
    return seeded_payload(trial)


def noop_payload(trial):
    return trial.index


def _engine(jobs, policy=None):
    return TrialEngine(jobs=jobs, collector=TrialMetricsCollector(), policy=policy)


class TestDeadlinesStartAtPickup:
    def test_queued_trials_do_not_time_out(self):
        trials = make_trials(EXPERIMENT, 0, count=12)
        serial = _engine(1).map(slow_start_payload, trials)
        batch = _engine(
            2, FailurePolicy(mode="skip", trial_timeout=TRIAL_TIMEOUT)
        ).run(slow_start_payload, trials)
        assert [f for f in batch.failures if f.kind == "timeout"] == []
        assert list(batch.payloads) == serial

    def test_hung_queued_trial_still_times_out(self):
        trials = make_trials(EXPERIMENT, 0, count=12)
        plan = FaultPlan(hang=(6,), recover_after=99, hang_seconds=8.0)
        with pytest.raises(TrialExecutionError) as excinfo:
            _engine(2, FailurePolicy(trial_timeout=TRIAL_TIMEOUT)).map(
                inject(slow_start_payload, plan), trials
            )
        assert excinfo.value.failure.kind == "timeout"
        assert excinfo.value.failure.index == 6


class TestWakeOnLanding:
    def test_idle_waits_rarely_time_out(self, monkeypatch):
        """A landing result must end the idle wait, not the poll timer.

        A fixed sleep between polls (or a wait nothing ever wakes) times
        out on nearly every idle wait: once per window of trials at
        best, 32 times for this batch.
        """
        count = 256
        waits = []
        idle_wait = faults._PoolExecutor._idle_wait

        def counted(executor):
            woke = idle_wait(executor)
            waits.append(bool(woke))
            return woke

        monkeypatch.setattr(faults._PoolExecutor, "_idle_wait", counted)
        payloads = _engine(2).map(
            noop_payload, make_trials(EXPERIMENT, 0, count=count)
        )
        assert payloads == list(range(count))
        assert waits, "the dispatch loop never went idle"
        # Worker start-up may outlast a few intervals; count from the
        # first landing on.
        settled = waits[waits.index(True):] if True in waits else waits
        timeouts = settled.count(False)
        assert timeouts <= count // 32, (
            f"{timeouts} of {len(waits)} idle waits timed out"
        )

    def test_stress_more_workers_than_cores(self):
        """Landings raced against the parent's scan are never lost.

        A lost outcome would leave the batch waiting forever, so the run
        is bounded by a join timeout; a tiny switch interval makes the
        result-handler thread and the parent interleave as often as
        possible.
        """
        count = 512
        result = {}

        def run():
            result["payloads"] = _engine((os.cpu_count() or 1) + 1).map(
                noop_payload, make_trials(EXPERIMENT, 0, count=count)
            )

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not runner.is_alive(), "the batch never finished"
        assert result["payloads"] == list(range(count))


class _StubProc:
    """Stands in for a pool worker's process handle."""

    def __init__(self, pid, alive=True, exitcode=None):
        self.pid = pid
        self.exitcode = exitcode
        self._alive = alive

    def is_alive(self):
        return self._alive


def _stub_executor(dispatch_order, procs, owners=(), policy=FailurePolicy()):
    """An executor with ``dispatch_order`` in flight and no real pool.

    ``owners`` maps worker pids to the trial each announced.
    """
    trials = make_trials(EXPERIMENT, 0, count=max(dispatch_order) + 1)
    executor = faults._PoolExecutor(
        noop_payload, trials, jobs=2, policy=policy
    )
    executor._pending.clear()
    for index in dispatch_order:
        executor._inflight[index] = faults._InFlight(
            trials[index], 0, executor._wake
        )
    for pid, index in dict(owners).items():
        executor._owner[pid] = index
        executor._inflight[index].started = True
    executor._procs = list(procs)
    return executor


def _charged(executor):
    return {index for index, count in executor._failed_attempts.items() if count}


class TestWorkerDeathAttribution:
    def test_ownerless_death_charges_only_the_oldest_queued_attempt(self):
        executor = _stub_executor(
            range(8), [_StubProc(101, alive=False, exitcode=-9), _StubProc(102)]
        )
        assert executor._reap_dead_workers()
        assert _charged(executor) == {0}
        assert set(executor._failures) == {0}
        assert executor._failures[0].kind == "worker-death"
        assert list(t.index for t in executor._pending) == list(range(1, 8))
        assert executor._inflight == {}

    def test_announced_victim_is_charged_alone(self):
        executor = _stub_executor(
            range(8),
            [_StubProc(101, alive=False, exitcode=-9), _StubProc(102)],
            owners={101: 1, 102: 0},
        )
        executor._reap_dead_workers()
        assert _charged(executor) == {1}
        assert executor._failures[1].worker == 101
        assert [t.index for t in executor._pending] == [0] + list(range(2, 8))

    def test_one_charge_per_ownerless_death_in_dispatch_order(self):
        # A retried trial 0 was dispatched after 3, 4 and 5.
        executor = _stub_executor(
            [3, 4, 5, 0],
            [_StubProc(101, alive=False), _StubProc(102, alive=False)],
            policy=FailurePolicy(retries=1),
        )
        executor._reap_dead_workers()
        assert _charged(executor) == {3, 4}
        assert executor._failures == {}
        assert [t.index for t in executor._pending] == [0, 5, 3, 4]

    def test_no_unannounced_attempt_means_no_charge(self):
        executor = _stub_executor(
            [0, 1],
            [_StubProc(101, alive=False), _StubProc(102), _StubProc(103)],
            owners={102: 0, 103: 1},
        )
        assert executor._reap_dead_workers()
        assert _charged(executor) == set()
        assert [t.index for t in executor._pending] == [0, 1]

    def test_live_pool_is_left_alone(self):
        executor = _stub_executor(range(4), [_StubProc(101), _StubProc(102)])
        assert not executor._reap_dead_workers()
        assert list(executor._inflight) == list(range(4))


class _StubAnnounce:
    """Stands in for the workers' announce queue."""

    def __init__(self, messages):
        self._messages = list(messages)

    def empty(self):
        return not self._messages

    def get(self):
        return self._messages.pop(0)


class TestAnnouncements:
    def test_stale_announcement_does_not_start_the_retry(self):
        # Attempt 0 of trial 3 failed and landed before worker 101's
        # announcement of it was read; attempt 1 now waits in the queue.
        executor = _stub_executor(
            [3],
            [_StubProc(101), _StubProc(102)],
            policy=FailurePolicy(retries=1, trial_timeout=TRIAL_TIMEOUT),
        )
        flight = executor._inflight[3]
        flight.attempt = 1
        executor._owner[101] = 3
        executor._announce = _StubAnnounce([(101, 3, 0)])
        executor._drain_announcements()
        assert not flight.started and flight.deadline is None
        assert executor._owner == {}

        executor._announce = _StubAnnounce([(102, 3, 1)])
        executor._drain_announcements()
        assert flight.started and flight.deadline is not None
        assert executor._owner == {102: 3}
