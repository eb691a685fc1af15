"""Pool dispatch: chunks, the prefetch window, wake-on-landing, and
attribution.

The pool executor sends trials k to a round trip, keeps several chunks
per worker queued in the pool, wakes the moment a chunk lands instead
of polling, and starts a trial's timeout clock at pickup.  These tests
pin what chunks and the window could break: a queued trial is never
timed out for waiting, nor for its chunk-mates' time; the parent loop
sleeps through no landing result; a worker that dies costs only the
trial it announced, or at most one attempt when it named none; a
stale announcement never starts a retry's clock; an unpicklable
payload fails only its own trial; and the committed sweep plan really
travels in multi-trial chunks.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from pathlib import Path

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
from repro.sweeps import load_specfile, run_sweep

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


#: Each trial of the chunked-timeout test takes this long.
FAST_SECONDS = 0.05

PLAN_PATH = (
    Path(__file__).resolve().parents[2] / "examples" / "sweeps" / "frontier_fast.json"
)


def fast_payload(trial):
    time.sleep(FAST_SECONDS)
    return seeded_payload(trial)


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

    Each entry of ``dispatch_order`` is one chunk: a trial index, or a
    tuple of indices sent in one round trip.  ``owners`` maps worker
    pids to the trial each announced; that trial's chunk is running it.
    """
    chunks = [
        (entry,) if isinstance(entry, int) else tuple(entry)
        for entry in dispatch_order
    ]
    trials = make_trials(
        EXPERIMENT, 0, count=max(i for chunk in chunks for i in chunk) + 1
    )
    executor = faults._PoolExecutor(
        noop_payload, trials, jobs=2, policy=policy
    )
    executor._pending.clear()
    for chunk in chunks:
        executor._track(
            faults._InFlight(
                tuple(trials[i] for i in chunk),
                {i: 0 for i in chunk},
                executor._wake,
            )
        )
    for pid, index in dict(owners).items():
        executor._owner[pid] = index
        executor._holder[index].running = index
    executor._procs = list(procs)
    return executor


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
        flight.attempts[3] = 1
        executor._owner[101] = 3
        executor._announce = _StubAnnounce([(101, 3, 0)])
        executor._drain_announcements()
        assert flight.running is None and flight.deadline is None
        assert executor._owner == {}

        executor._announce = _StubAnnounce([(102, 3, 1)])
        executor._drain_announcements()
        assert flight.running == 3 and flight.deadline is not None
        assert executor._owner == {102: 3}


def _spy_chunks(monkeypatch):
    """Record the trial indices of every chunk the executor dispatches."""
    chunks = []
    take = faults._PoolExecutor._take_chunk

    def spy(executor):
        chunk = take(executor)
        chunks.append(tuple(trial.index for trial in chunk))
        return chunk

    monkeypatch.setattr(faults._PoolExecutor, "_take_chunk", spy)
    return chunks


class TestChunkAttribution:
    """A fault inside a multi-trial chunk is charged to one trial."""

    def test_death_charges_the_announced_trial_and_requeues_its_mates(self):
        # Worker 101 had finished trials 0 and 1 of its chunk (their
        # results travel with the chunk, so none came back), was running
        # 2 when it died, and had not started 3.
        executor = _stub_executor(
            [(0, 1, 2, 3), (4, 5, 6, 7)],
            [_StubProc(101, alive=False, exitcode=-9), _StubProc(102)],
            owners={101: 2},
        )
        assert executor._reap_dead_workers()
        assert _charged(executor) == {2}
        assert executor._failures[2].kind == "worker-death"
        assert executor._failures[2].worker == 101
        assert _pending(executor) == [0, 1, 3, 4, 5, 6, 7]
        assert executor._inflight == {} and executor._holder == {}

    def test_ownerless_death_charges_the_oldest_unstarted_chunk(self):
        # Worker 102 is inside the first chunk (trial 1 announced, 2 and
        # 3 still to come).  The dead worker named nothing, so it had
        # taken the oldest chunk no worker had started.
        executor = _stub_executor(
            [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)],
            [_StubProc(101, alive=False), _StubProc(102)],
            owners={102: 1},
        )
        assert executor._reap_dead_workers()
        assert _charged(executor) == {4}
        assert _pending(executor) == [0, 1, 2, 3, 5, 6, 7, 8, 9]

    def test_next_announcement_stops_the_previous_trials_clock(self):
        executor = _stub_executor(
            [(0, 1, 2)],
            [_StubProc(101), _StubProc(102)],
            policy=FailurePolicy(trial_timeout=TRIAL_TIMEOUT),
        )
        flight = executor._inflight[0]
        executor._announce = _StubAnnounce([(101, 0, 0)])
        executor._drain_announcements()
        assert flight.running == 0 and flight.deadline is not None
        # Trial 0's budget has run out, but worker 101 has announced
        # trial 1 since: the chunk's running time is not trial 1's.
        flight.deadline = time.perf_counter() - 1.0
        executor._announce = _StubAnnounce([(101, 1, 0)])
        assert not executor._reap_timeouts()
        assert flight.running == 1 and flight.deadline > time.perf_counter()
        assert _charged(executor) == set()

    def test_pickup_of_the_next_chunk_stops_the_last_trials_clock(self):
        # Worker 101 ran trial 1, the last of its chunk, and picked up
        # chunk (2, 3) before the first chunk's result was read.
        executor = _stub_executor(
            [(0, 1), (2, 3)],
            [_StubProc(101), _StubProc(102)],
            owners={101: 1},
            policy=FailurePolicy(trial_timeout=TRIAL_TIMEOUT),
        )
        executor._inflight[0].deadline = time.perf_counter() - 1.0
        executor._announce = _StubAnnounce([(101, 2, 0)])
        assert not executor._reap_timeouts()
        assert executor._inflight[0].deadline is None
        assert executor._owner == {101: 2}

    def test_timeout_charges_the_running_trial_alone(self):
        executor = _stub_executor(
            [(0, 1, 2, 3), (4, 5)],
            [_StubProc(101), _StubProc(102)],
            owners={101: 1},
            policy=FailurePolicy(mode="skip", trial_timeout=TRIAL_TIMEOUT),
        )
        executor._inflight[0].deadline = time.perf_counter() - 1.0
        assert executor._reap_timeouts()
        assert _charged(executor) == {1}
        assert executor._failures[1].kind == "timeout"
        assert executor._failures[1].worker == 101
        assert _pending(executor) == [0, 2, 3, 4, 5]

    def test_unpicklable_chunk_is_resent_one_trial_per_task(self):
        executor = _stub_executor(
            [(0, 1, 2), 3], [_StubProc(101), _StubProc(102)]
        )
        executor._inflight[0].raised(TypeError("cannot pickle"))
        executor._inflight[3].raised(TypeError("cannot pickle"))
        assert executor._collect_landed()
        # The lone trial answers for its payload; the chunk goes back
        # uncharged, and each of its trials will travel alone.
        assert _charged(executor) == {3}
        assert executor._failures[3].kind == "payload"
        assert _pending(executor) == [0, 1, 2]
        executor._measured, executor._measured_seconds = 100, 1e-4
        assert [executor._take_chunk() for _ in range(3)] == [
            [executor._order[0]],
            [executor._order[1]],
            [executor._order[2]],
        ]


class TestChunkSize:
    def _executor(self, pending, per_trial):
        trials = make_trials(EXPERIMENT, 0, count=pending)
        executor = faults._PoolExecutor(
            noop_payload, trials, jobs=2, policy=FailurePolicy()
        )
        executor._measured = 10
        executor._measured_seconds = 10 * per_trial
        return executor

    def test_unmeasured_trials_travel_alone(self):
        executor = self._executor(1024, 1e-4)
        executor._measured = executor._measured_seconds = 0
        assert executor._chunk_size() == 1

    def test_slow_trials_travel_alone(self):
        assert self._executor(1024, 0.02)._chunk_size() == 1

    def test_fast_trials_fill_the_target_time(self):
        k = self._executor(1024, 2.5e-4)._chunk_size()
        assert abs(k * 2.5e-4 - faults._CHUNK_SECONDS) <= 2.5e-4

    def test_tail_keeps_two_chunks_per_worker(self):
        assert self._executor(40, 1e-6)._chunk_size() == 10
        assert self._executor(3, 1e-6)._chunk_size() == 1


class TestChunkedPool:
    def test_chunk_longer_than_the_timeout_does_not_time_out(self, monkeypatch):
        # Chunks of up to a second of 50 ms trials, under a 0.4 s
        # per-trial budget.
        monkeypatch.setattr(faults, "_CHUNK_SECONDS", 1.0)
        chunks = _spy_chunks(monkeypatch)
        trials = make_trials(EXPERIMENT, 0, count=64)
        batch = _engine(2, FailurePolicy(mode="skip", trial_timeout=0.4)).run(
            fast_payload, trials
        )
        assert batch.failures == ()
        assert list(batch.payloads) == [seeded_payload(t) for t in trials]
        assert max(map(len, chunks)) * FAST_SECONDS > 0.4

    def test_corrupt_payload_fails_only_its_own_trial(self, monkeypatch):
        chunks = _spy_chunks(monkeypatch)
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
        first_trip = next(chunk for chunk in chunks if victim in chunk)
        assert len(first_trip) > 1
        assert (victim,) in chunks

    def test_sweep_plan_travels_in_multi_trial_chunks(self, monkeypatch):
        plan = load_specfile(PLAN_PATH)
        serial = run_sweep(plan.specs, root_seed=plan.seed, jobs=1)
        chunks = _spy_chunks(monkeypatch)
        fanned = run_sweep(plan.specs, root_seed=plan.seed, jobs=2)
        assert fanned.failed == 0
        assert fanned.summaries == serial.summaries
        assert sorted(i for chunk in chunks for i in chunk) == list(
            range(len(plan.specs))
        )
        assert max(map(len, chunks)) > 1
        assert len(chunks) < len(plan.specs) // 4
