"""Pool dispatch: the prefetch window, wake-on-landing, and attribution.

The pool executor sends one trial per task, keeps several tasks per
worker queued in the pool, wakes the moment a result lands instead of
polling, and starts a trial's timeout clock at pickup.  These tests pin
what the window could break: a queued trial is never timed out for
waiting; the parent loop sleeps through no landing result; a worker
that dies costs only the trial it announced, or at most one attempt
when it named none; a stale announcement never starts a retry's clock;
a result that has landed is never charged; and an unpicklable payload
fails only its own trial.
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

    Each entry of ``dispatch_order`` is one task's trial index.
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


def _land(executor, index, worker):
    """Deliver trial ``index``'s successful result, as the result handler does."""
    executor._inflight[index].landed(
        faults._Attempt(ok=True, payload=index, seconds=0.0, worker=worker)
    )


def _charged(executor):
    return {index for index, count in executor._failed_attempts.items() if count}


def _pending(executor):
    return [t.index for t in executor._pending]


class TestWorkerDeathAttribution:
    def test_ownerless_death_charges_only_the_oldest_queued_attempt(self):
        executor = _stub_executor(
            range(8), [_StubProc(101, alive=False, exitcode=-9), _StubProc(102)]
        )
        assert executor._reap_dead_workers()
        assert _charged(executor) == {0}
        assert set(executor._failures) == {0}
        assert executor._failures[0].kind == "worker-death"
        assert _pending(executor) == list(range(1, 8))
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
        assert _pending(executor) == [0] + list(range(2, 8))

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
        assert _pending(executor) == [0, 5, 3, 4]

    def test_no_unannounced_attempt_means_no_charge(self):
        executor = _stub_executor(
            [0, 1],
            [_StubProc(101, alive=False), _StubProc(102), _StubProc(103)],
            owners={102: 0, 103: 1},
        )
        assert executor._reap_dead_workers()
        assert _charged(executor) == set()
        assert _pending(executor) == [0, 1]

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


class TestChunkAttribution:
    """A fault is charged to the one trial its task carried; every
    other trial in flight is requeued uncharged, and one whose result
    has landed is kept."""

    def test_death_charges_the_announced_trial_and_requeues_its_mates(self):
        # Worker 101 was running trial 2 when it died; 0, 1 and 3-7
        # were queued or running on worker 102.
        executor = _stub_executor(
            range(8),
            [_StubProc(101, alive=False, exitcode=-9), _StubProc(102)],
            owners={101: 2, 102: 0},
        )
        assert executor._reap_dead_workers()
        assert _charged(executor) == {2}
        assert executor._failures[2].kind == "worker-death"
        assert executor._failures[2].worker == 101
        assert _pending(executor) == [0, 1, 3, 4, 5, 6, 7]
        assert executor._inflight == {}

    def test_ownerless_death_charges_the_oldest_unstarted_trial(self):
        # Worker 102 is running trial 1.  The dead worker named
        # nothing, so it had taken the oldest trial no worker had
        # started.
        executor = _stub_executor(
            range(6),
            [_StubProc(101, alive=False), _StubProc(102)],
            owners={102: 1},
        )
        assert executor._reap_dead_workers()
        assert _charged(executor) == {0}
        assert _pending(executor) == [1, 2, 3, 4, 5]

    def test_next_announcement_stops_the_previous_trials_clock(self):
        # Worker 101 finished trial 0 and picked up trial 1 before 0's
        # result was read: 0's running time is over.
        executor = _stub_executor(
            [0, 1],
            [_StubProc(101), _StubProc(102)],
            policy=FailurePolicy(trial_timeout=TRIAL_TIMEOUT),
        )
        first, second = executor._inflight[0], executor._inflight[1]
        executor._announce = _StubAnnounce([(101, 0, 0)])
        executor._drain_announcements()
        assert first.started and first.deadline is not None
        first.deadline = time.perf_counter() - 1.0
        executor._announce = _StubAnnounce([(101, 1, 0)])
        assert not executor._reap_timeouts()
        assert first.deadline is None
        assert second.started and second.deadline > time.perf_counter()
        assert executor._owner == {101: 1}
        assert _charged(executor) == set()

    def test_pickup_of_the_next_chunk_stops_the_last_trials_clock(self):
        # Worker 101 ran trial 1 and picked up trial 2 before 1's result
        # was read, while worker 102 is still inside trial 0.
        executor = _stub_executor(
            [0, 1, 2],
            [_StubProc(101), _StubProc(102)],
            owners={101: 1, 102: 0},
            policy=FailurePolicy(trial_timeout=TRIAL_TIMEOUT),
        )
        executor._inflight[1].deadline = time.perf_counter() - 1.0
        executor._announce = _StubAnnounce([(101, 2, 0)])
        assert not executor._reap_timeouts()
        assert executor._inflight[1].deadline is None
        assert executor._inflight[2].started
        assert executor._owner == {101: 2, 102: 0}
        assert _charged(executor) == set()

    def test_timeout_charges_the_running_trial_alone(self):
        executor = _stub_executor(
            range(6),
            [_StubProc(101), _StubProc(102)],
            owners={101: 1},
            policy=FailurePolicy(mode="skip", trial_timeout=TRIAL_TIMEOUT),
        )
        executor._inflight[1].deadline = time.perf_counter() - 1.0
        assert executor._reap_timeouts()
        assert _charged(executor) == {1}
        assert executor._failures[1].kind == "timeout"
        assert executor._failures[1].worker == 101
        assert _pending(executor) == [0, 2, 3, 4, 5]

    def test_unpicklable_payload_is_charged_to_its_trial(self):
        executor = _stub_executor(
            [0, 1], [_StubProc(101), _StubProc(102)], owners={101: 0}
        )
        executor._inflight[0].raised(TypeError("cannot pickle"))
        assert executor._collect_landed()
        assert _charged(executor) == {0}
        assert executor._failures[0].kind == "payload"
        assert executor._failures[0].worker == 101
        assert list(executor._inflight) == [1]
        assert executor._owner == {}

    def test_landed_result_is_not_charged_for_a_timeout(self):
        # Trial 0's deadline has passed, but its result landed before
        # the loop collected it: nothing is hung.
        executor = _stub_executor(
            [0, 1],
            [_StubProc(101), _StubProc(102)],
            owners={101: 0},
            policy=FailurePolicy(mode="skip", trial_timeout=TRIAL_TIMEOUT),
        )
        executor._inflight[0].deadline = time.perf_counter() - 1.0
        _land(executor, 0, worker=101)
        executor._reap_timeouts()
        assert executor._failures == {}
        assert _charged(executor) == set()
        assert set(executor._successes) == {0}
        assert _pending(executor) == [1]

    def test_landed_result_is_not_charged_for_its_workers_death(self):
        # Worker 101 sent trial 0's result back, then died before the
        # loop collected it.
        executor = _stub_executor(
            [0, 1],
            [_StubProc(101, alive=False, exitcode=-9), _StubProc(102)],
            owners={101: 0, 102: 1},
            policy=FailurePolicy(mode="skip"),
        )
        _land(executor, 0, worker=101)
        assert executor._reap_dead_workers()
        assert executor._failures == {}
        assert _charged(executor) == set()
        assert set(executor._successes) == {0}
        assert _pending(executor) == [1]


class TestChunkedPool:
    def test_corrupt_payload_fails_only_its_own_trial(self):
        trials = make_trials(EXPERIMENT, 0, count=128)
        victim = 64
        plan = FaultPlan(corrupt=(victim,), recover_after=99)
        batch = _engine(2, FailurePolicy(mode="skip")).run(
            inject(seeded_payload, plan), trials
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


class _StubPool:
    """Stands in for the pool: runs each task at once, in this process."""

    def __init__(self):
        self.tasks = []

    def apply_async(self, func, args, callback, error_callback):
        self.tasks.append((func, args[1:]))
        callback(func(*args))


class TestOneTrialPerTask:
    def test_every_task_carries_one_trial(self):
        trials = make_trials(EXPERIMENT, 0, count=16)
        executor = faults._PoolExecutor(
            noop_payload, trials, jobs=2, policy=FailurePolicy()
        )
        executor._pool = _StubPool()
        executor._dispatch()
        window = trials[: faults._PREFETCH * 2]
        assert executor._pool.tasks == [(faults._run_attempt, (t, 0)) for t in window]
        assert executor._collect_landed()
        assert sorted(executor._successes) == [t.index for t in window]
