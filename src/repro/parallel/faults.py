"""Fault-tolerant trial execution: retries, timeouts, and degradation.

The original ``TrialEngine`` had all-or-nothing failure semantics: one
raising trial terminated the pool and lost every completed payload,
with no record of *which* trial (and therefore which seed) failed.
This module is the layer that fixes that bug class:

- every per-trial exception is captured into a structured
  :class:`TrialFailure` (experiment id, index, seed, params, traceback,
  worker PID, attempt count) instead of collapsing the batch;
- failed trials are retried a bounded, deterministic number of times
  with the *same seed*, so a retried success is bit-identical to a
  first-try success (trial functions draw all randomness from
  ``trial.seed``, the engine's standing contract);
- the pool sends each worker one trial per round trip, yet keeps
  several queued per worker; every fault is charged to one trial:
  workers announce each trial as they start it, per-trial timeouts run
  from that announcement, and a dead or hung worker costs only the
  trial it had announced; the pool is respawned and every other
  unfinished trial is re-dispatched uncharged;
- a :class:`FailurePolicy` chooses between fail-fast (``"raise"``),
  degrade-and-report (``"skip"``), and a bounded failure budget
  (``max_failures=N``), and the engine returns partial results plus
  the full failure roster in a :class:`BatchResult`;
- an optional ``on_success(trial, payload)`` callback sees each
  success as it lands, so callers can store results while the workers
  are still computing.

The bottom of the module is a deterministic fault-injection harness
(:func:`inject` / :class:`FaultPlan`): crash, hang, error, and
corrupt-payload modes keyed off the trial index, recovering after a
configurable number of attempts.  The fault-smoke test suite and CI
job drive the executors through every failure path with it.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigurationError, ReproError
from ..rng import derive_seed

__all__ = [
    "BatchResult",
    "ExcessiveFailuresError",
    "FailurePolicy",
    "FaultPlan",
    "InjectedFault",
    "TrialExecutionError",
    "TrialFailure",
    "WorkerTraceback",
    "call_trial",
    "execute_batch",
    "inject",
]

#: Longest the parent sleeps between timeout and liveness checks
#: (seconds).  Result arrival wakes it at once; this is only the
#: cadence of the checks that no result announces.
_POLL_INTERVAL = 0.02

#: Trials kept dispatched per worker.  The pool's task queue holds
#: the surplus, so a worker that finishes one trial picks up the next
#: without waiting for the parent's round trip.
_PREFETCH = 4

#: Exit code used by injected crashes (visible in worker exitcodes).
CRASH_EXIT_CODE = 87


# ----------------------------------------------------------------------
# Failure records and errors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialFailure:
    """One trial's final (post-retry) failure, fully attributed.

    Attributes:
        experiment_id / index / seed / params: The owning
            :class:`~repro.parallel.trials.Trial`'s identity — enough
            to reproduce the failure with ``jobs=1``.
        kind: ``"error"`` (trial raised), ``"timeout"`` (exceeded the
            policy's per-trial timeout), ``"worker-death"`` (the worker
            process died mid-trial), or ``"payload"`` (the payload
            failed to cross the process boundary, e.g. unpicklable).
        error_type / message: Exception class name and message, when
            one was captured.
        traceback_text: Formatted traceback from the failing process
            (empty for timeouts and silent worker deaths).
        worker: PID of the process that ran the failing attempt, when
            known.
        attempts: Total attempts consumed (always ``retries + 1`` for a
            final failure).
    """

    experiment_id: str
    index: int
    seed: int
    params: Tuple[Tuple[str, Any], ...]
    kind: str
    error_type: str
    message: str
    traceback_text: str
    worker: Optional[int]
    attempts: int

    def describe(self) -> str:
        """One-line human-readable form naming the reproducing seed."""
        detail = f"{self.error_type}: {self.message}" if self.error_type else self.kind
        return (
            f"({self.experiment_id}, {self.index}, {self.seed}) "
            f"{self.kind} after {self.attempts} attempt(s): {detail}"
        )


class WorkerTraceback(Exception):
    """Carrier for a traceback captured in a worker process.

    Chained as the ``__cause__`` of :class:`TrialExecutionError` so the
    remote traceback text survives the process boundary even though the
    original exception object could not.
    """

    def __str__(self) -> str:
        text = self.args[0] if self.args else ""
        return f"\n{text}" if text else "worker traceback unavailable"


class TrialExecutionError(ReproError):
    """A trial exhausted its retries; names the reproducing trial.

    The structured context (``experiment_id``, ``index``, ``seed``)
    rides in the message and in :attr:`failure`, so a failed sweep
    always tells the operator which seed to re-run serially.
    """

    def __init__(self, failure: TrialFailure) -> None:
        self.failure = failure
        super().__init__(
            f"trial failed ({failure.kind}) after {failure.attempts} attempt(s): "
            f"{failure.error_type or failure.kind}: {failure.message}",
            experiment_id=failure.experiment_id,
            index=failure.index,
            seed=failure.seed,
        )


class ExcessiveFailuresError(ReproError):
    """More trials failed than ``FailurePolicy.max_failures`` allows."""

    def __init__(self, failures: Sequence[TrialFailure], max_failures: int) -> None:
        self.failures = tuple(failures)
        named = ", ".join(
            f"({f.experiment_id}, {f.index}, {f.seed})" for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)} trial failure(s) exceeded "
            f"max_failures={max_failures}: {named}"
        )


# ----------------------------------------------------------------------
# Policy and batch result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailurePolicy:
    """How a batch degrades when trials fail.

    Attributes:
        mode: ``"raise"`` aborts the batch at the first final failure
            (the exception is a :class:`TrialExecutionError` naming the
            trial); ``"skip"`` completes the batch and reports failures
            in the :class:`BatchResult`.
        retries: Re-dispatches allowed per trial after its first
            failure, with the same seed — a retried success is
            bit-identical to a first-try success.
        trial_timeout: Per-trial wall-clock budget in seconds.  Only
            enforceable across a process boundary (``jobs > 1``):
            inline execution cannot be preempted.
        max_failures: In ``"skip"`` mode, the failure budget — when the
            batch ends with *more* than this many failed trials, the
            engine raises :class:`ExcessiveFailuresError` naming every
            one.  ``None`` means unbounded.
    """

    mode: str = "raise"
    retries: int = 0
    trial_timeout: Optional[float] = None
    max_failures: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "skip"):
            raise ConfigurationError(
                "mode must be 'raise' or 'skip'", mode=self.mode
            )
        if (
            isinstance(self.retries, bool)
            or not isinstance(self.retries, int)
            or self.retries < 0
        ):
            raise ConfigurationError("retries must be an int >= 0", retries=self.retries)
        if self.trial_timeout is not None:
            if (
                isinstance(self.trial_timeout, bool)
                or not isinstance(self.trial_timeout, (int, float))
                or self.trial_timeout <= 0
            ):
                raise ConfigurationError(
                    "trial_timeout must be a positive number of seconds",
                    trial_timeout=self.trial_timeout,
                )
        if self.max_failures is not None:
            if self.mode != "skip":
                raise ConfigurationError(
                    "max_failures requires mode='skip'", mode=self.mode
                )
            if (
                isinstance(self.max_failures, bool)
                or not isinstance(self.max_failures, int)
                or self.max_failures < 0
            ):
                raise ConfigurationError(
                    "max_failures must be an int >= 0", max_failures=self.max_failures
                )

    @classmethod
    def strict(cls) -> "FailurePolicy":
        """The default fail-fast policy (no retries, no timeout)."""
        return cls()

    @property
    def attempts_per_trial(self) -> int:
        return self.retries + 1

    def over_budget(self, failure_count: int) -> bool:
        """Has ``failure_count`` final failures already broken the policy?"""
        if failure_count == 0:
            return False
        if self.mode == "raise":
            return True
        return self.max_failures is not None and failure_count > self.max_failures


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batch: partial payloads plus the failure roster.

    ``trials`` and ``payloads`` are aligned in ascending trial-index
    order; a failed (or never-executed, after an abort) trial's payload
    slot holds ``None`` and its index appears in :attr:`failed_indices`
    — check there rather than testing payloads for ``None``, which a
    trial could legitimately return.
    """

    trials: Tuple[Any, ...]
    payloads: Tuple[Any, ...]
    failures: Tuple[TrialFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_indices(self) -> frozenset:
        return frozenset(f.index for f in self.failures)

    def completed(self) -> Dict[int, Any]:
        """Index -> payload for every trial that finished."""
        failed = self.failed_indices
        return {
            trial.index: payload
            for trial, payload in zip(self.trials, self.payloads)
            if trial.index not in failed
        }

    def summary(self) -> str:
        """One-line ``"N ok, M failed"`` report for sweep output."""
        done = len(self.trials) - len(self.failures)
        if not self.failures:
            return f"{done} trial(s) ok"
        named = ", ".join(str(f.index) for f in self.failures)
        return f"{done} trial(s) ok, {len(self.failures)} failed (index {named})"


# ----------------------------------------------------------------------
# Attempt execution (shared by the serial and pool paths)
# ----------------------------------------------------------------------
def call_trial(fn: Callable[..., Any], trial: Any, attempt: int) -> Any:
    """Invoke a trial function, passing the attempt number when asked.

    Ordinary trial functions take ``(trial)`` only; attempt-aware
    callables (the fault injectors) declare ``_accepts_attempt = True``
    and receive ``(trial, attempt)``.  Payload determinism must never
    depend on ``attempt`` — the injectors use it exclusively to decide
    whether to fault, not what to compute.
    """
    if getattr(fn, "_accepts_attempt", False):
        return fn(trial, attempt)
    return fn(trial)


@dataclass(frozen=True)
class _Attempt:
    """One attempt's outcome as shipped back from the executing process."""

    ok: bool
    payload: Any
    seconds: float
    worker: int
    error_type: str = ""
    message: str = ""
    traceback_text: str = ""


#: Worker-process handle to the announce queue (set by ``_worker_init``;
#: ``None`` in the parent and in inline execution).
_WORKER_ANNOUNCE = None


def _worker_init(announce: Any) -> None:
    """Pool initializer: stash the announce queue in the worker."""
    global _WORKER_ANNOUNCE
    _WORKER_ANNOUNCE = announce


def _run_attempt(fn: Callable[..., Any], trial: Any, attempt: int) -> _Attempt:
    """Worker entry point: announce one trial, run it, capture any error."""
    pid = os.getpid()
    announce = _WORKER_ANNOUNCE
    if announce is not None:
        announce.put((pid, trial.index, attempt))
    start = time.perf_counter()
    try:
        payload = call_trial(fn, trial, attempt)
    except Exception as exc:
        return _Attempt(
            ok=False,
            payload=None,
            seconds=time.perf_counter() - start,
            worker=pid,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback_text=traceback.format_exc(),
        )
    return _Attempt(
        ok=True,
        payload=payload,
        seconds=time.perf_counter() - start,
        worker=pid,
    )


def _format_exception(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))


def _make_failure(
    trial: Any,
    kind: str,
    error_type: str,
    message: str,
    traceback_text: str,
    worker: Optional[int],
    attempts: int,
) -> TrialFailure:
    return TrialFailure(
        experiment_id=trial.experiment_id,
        index=trial.index,
        seed=trial.seed,
        params=trial.params,
        kind=kind,
        error_type=error_type,
        message=message,
        traceback_text=traceback_text,
        worker=worker,
        attempts=attempts,
    )


_ExecResult = Tuple[
    Dict[int, _Attempt], Dict[int, TrialFailure], Dict[int, BaseException]
]


#: Called in the parent with ``(trial, payload)`` as each success lands.
_OnSuccess = Optional[Callable[[Any, Any], None]]


def _run_serial(
    fn: Callable[..., Any],
    batch: Sequence[Any],
    policy: FailurePolicy,
    on_success: _OnSuccess = None,
) -> _ExecResult:
    """Inline execution with retries; timeouts are not preemptible here."""
    successes: Dict[int, _Attempt] = {}
    failures: Dict[int, TrialFailure] = {}
    causes: Dict[int, BaseException] = {}
    pid = os.getpid()
    for trial in sorted(batch, key=lambda t: t.index):
        if policy.over_budget(len(failures)):
            break
        last_exc: Optional[BaseException] = None
        for attempt in range(policy.attempts_per_trial):
            start = time.perf_counter()
            try:
                payload = call_trial(fn, trial, attempt)
            except Exception as exc:
                last_exc = exc
                continue
            successes[trial.index] = _Attempt(
                ok=True,
                payload=payload,
                seconds=time.perf_counter() - start,
                worker=pid,
            )
            if on_success is not None:
                on_success(trial, payload)
            break
        else:
            assert last_exc is not None
            failures[trial.index] = _make_failure(
                trial,
                kind="error",
                error_type=type(last_exc).__name__,
                message=str(last_exc),
                traceback_text=_format_exception(last_exc),
                worker=pid,
                attempts=policy.attempts_per_trial,
            )
            causes[trial.index] = last_exc
    return successes, failures, causes


# ----------------------------------------------------------------------
# Pool execution with retries, timeouts, and worker-death recovery
# ----------------------------------------------------------------------
@dataclass
class _InFlight:
    """Bookkeeping for one dispatched-but-unfinished attempt.

    The pool's result-handler thread calls :meth:`landed` or
    :meth:`raised`.  Both record the outcome *before* setting ``wake``,
    and the parent clears ``wake`` before it scans for outcomes, so no
    landing is ever slept through.  ``started`` is set once a worker
    has announced the attempt, and ``deadline`` is its timeout.
    """

    trial: Any
    attempt: int
    wake: threading.Event
    outcome: Optional[Tuple[bool, Any]] = None
    deadline: Optional[float] = None
    started: bool = False

    def landed(self, value: Any) -> None:
        self.outcome = (True, value)
        self.wake.set()

    def raised(self, exc: BaseException) -> None:
        self.outcome = (False, exc)
        self.wake.set()


class _PoolExecutor:
    """Runs one batch over a worker pool with fault recovery.

    Each task carries one ``(trial, attempt)``.  Up to
    ``_PREFETCH * workers`` are dispatched at once; the ones no worker
    has picked up yet wait in the pool's FIFO task queue.  Every
    landing result wakes the parent loop, which otherwise sleeps at
    most ``_POLL_INTERVAL`` between timeout and liveness checks.

    A worker announces each trial as it starts it; the trial's
    ``trial_timeout`` clock runs from that announcement until the same
    worker announces its next trial or the result lands, so time spent
    queued never counts against it.  A hung trial (deadline exceeded)
    or a dead worker poisons only the announced trial's attempt count:
    the pool is torn down, respawned, and every *other* unfinished
    trial is re-dispatched without being charged an attempt.  A result
    that landed before the pool was torn down is collected, never
    charged.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        batch: Sequence[Any],
        jobs: int,
        policy: FailurePolicy,
        on_success: _OnSuccess = None,
    ) -> None:
        self._fn = fn
        self._order = sorted(batch, key=lambda t: t.index)
        self._workers = max(1, min(jobs, len(self._order)))
        self._window = _PREFETCH * self._workers
        self._policy = policy
        self._on_success = on_success
        self._wake = threading.Event()
        self._pending: Deque[Any] = deque(self._order)
        # Keyed by trial index; dicts keep insertion order, so this one
        # iterates in dispatch order.
        self._inflight: Dict[int, _InFlight] = {}
        self._failed_attempts: Dict[int, int] = {t.index: 0 for t in self._order}
        self._owner: Dict[int, int] = {}  # worker pid -> announced trial index
        self._successes: Dict[int, _Attempt] = {}
        self._failures: Dict[int, TrialFailure] = {}
        self._causes: Dict[int, BaseException] = {}
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._procs: List[Any] = []
        self._announce: Any = None

    # -- main loop -----------------------------------------------------
    def run(self) -> _ExecResult:
        try:
            while (self._pending or self._inflight) and not self._policy.over_budget(
                len(self._failures)
            ):
                self._ensure_pool()
                self._dispatch()
                self._drain_announcements()
                progressed = self._collect_landed()
                progressed = self._reap_timeouts() or progressed
                progressed = self._reap_dead_workers() or progressed
                if not progressed and (self._pending or self._inflight):
                    self._idle_wait()
        finally:
            self._teardown_pool()
        return self._successes, self._failures, self._causes

    def _idle_wait(self) -> bool:
        """Sleep until a result lands or ``_POLL_INTERVAL`` passes.

        Returns ``True`` when a landing woke the loop, ``False`` when
        the interval ran out.
        """
        woke = self._wake.wait(_POLL_INTERVAL)
        self._wake.clear()
        return woke

    # -- pool lifecycle ------------------------------------------------
    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        self._announce = multiprocessing.SimpleQueue()
        self._pool = multiprocessing.Pool(
            processes=self._workers,
            initializer=_worker_init,
            initargs=(self._announce,),
        )
        self._procs = list(getattr(self._pool, "_pool", []))
        self._owner = {}

    def _teardown_pool(self) -> None:
        """Stop the pool; once this returns, no further result can land."""
        pool, self._pool = self._pool, None
        announce, self._announce = self._announce, None
        self._procs = []
        if pool is not None:
            pool.terminate()  # joins the result-handler thread
            pool.join()
        if announce is not None:
            try:
                while not announce.empty():
                    announce.get()
                announce.close()
            except (OSError, EOFError):  # pragma: no cover - teardown best effort
                pass

    # -- scheduling ----------------------------------------------------
    def _dispatch(self) -> None:
        assert self._pool is not None
        while self._pending and len(self._inflight) < self._window:
            trial = self._pending.popleft()
            flight = _InFlight(trial, self._failed_attempts[trial.index], self._wake)
            self._pool.apply_async(
                _run_attempt,
                (self._fn, trial, flight.attempt),
                callback=flight.landed,
                error_callback=flight.raised,
            )
            self._inflight[trial.index] = flight

    # -- progress ------------------------------------------------------
    def _drain_announcements(self) -> None:
        announce = self._announce
        if announce is None:
            return
        try:
            while not announce.empty():
                pid, index, attempt = announce.get()
                # The worker has moved past the trial it announced
                # before: that trial's clock stops here.
                previous = self._inflight.get(self._owner.pop(pid, None))
                if previous is not None:
                    previous.deadline = None
                flight = self._inflight.get(index)
                if flight is None or flight.attempt != attempt:
                    # That attempt landed before its announcement was
                    # read: the worker has moved on to an unnamed trial.
                    continue
                self._owner[pid] = index
                flight.started = True
                if self._policy.trial_timeout is not None:
                    flight.deadline = time.perf_counter() + self._policy.trial_timeout
        except (OSError, EOFError):  # pragma: no cover - queue torn down mid-read
            pass

    def _collect_landed(self) -> bool:
        landed = [f for f in self._inflight.values() if f.outcome is not None]
        for flight in landed:
            trial = flight.trial
            del self._inflight[trial.index]
            ok, value = flight.outcome
            if ok:
                self._attempt_landed(trial, value)
            else:
                # The attempt ran but its outcome could not cross the
                # process boundary (e.g. an unpicklable payload raised
                # MaybeEncodingError in the pool's result handler).
                self._attempt_failed(
                    trial,
                    kind="payload",
                    error_type=type(value).__name__,
                    message=str(value),
                    traceback_text="",
                    worker=self._pid_running(trial.index),
                )
            self._owner = {
                pid: owned for pid, owned in self._owner.items() if owned != trial.index
            }
        return bool(landed)

    def _attempt_landed(self, trial: Any, attempt: _Attempt) -> None:
        if not attempt.ok:
            self._attempt_failed(
                trial,
                kind="error",
                error_type=attempt.error_type,
                message=attempt.message,
                traceback_text=attempt.traceback_text,
                worker=attempt.worker,
            )
            return
        self._successes[trial.index] = attempt
        if self._on_success is not None:
            self._on_success(trial, attempt.payload)

    def _reap_timeouts(self) -> bool:
        if self._policy.trial_timeout is None or not self._inflight:
            return False
        # A trial finished just now may have stopped its own clock.
        self._drain_announcements()
        now = time.perf_counter()
        expired = [
            index
            for index, flight in self._inflight.items()
            if flight.deadline is not None and now > flight.deadline
        ]
        if not expired:
            return False
        self._recover(
            expired,
            kind="timeout",
            error_type="TimeoutError",
            message=f"trial exceeded trial_timeout={self._policy.trial_timeout:g}s",
        )
        return True

    def _reap_dead_workers(self) -> bool:
        dead = [proc for proc in self._procs if not proc.is_alive()]
        if not dead:
            return False
        # A pickup announced just before the death names its victim.
        self._drain_announcements()
        victims = [
            index
            for index in (self._owner.get(proc.pid) for proc in dead)
            if index in self._inflight
        ]
        # A worker that died before announcing had taken the oldest
        # unstarted trial from the pool's FIFO queue and died in it:
        # charge one attempt per such death, to each oldest unstarted
        # trial, and no more.
        ownerless = len(dead) - len(victims)
        unstarted = [i for i, f in self._inflight.items() if not f.started]
        victims.extend(unstarted[:ownerless])
        exitcodes = sorted({proc.exitcode for proc in dead if proc.exitcode})
        self._recover(
            victims,
            kind="worker-death",
            error_type="WorkerDeath",
            message=(
                "worker process died mid-trial"
                + (f" (exitcode(s) {exitcodes})" if exitcodes else "")
            ),
        )
        return True

    def _recover(
        self, victims: Sequence[int], kind: str, error_type: str, message: str
    ) -> None:
        """Respawn the pool, charge each victim whose result has not
        landed one attempt, and requeue every other unfinished trial
        uncharged."""
        # A hung worker still occupies a slot; reclaim it by respawning
        # the pool (the next loop iteration recreates it).  With the
        # pool stopped nothing more can land, so collect what has.
        self._teardown_pool()
        self._collect_landed()
        charged = set(victims)
        unfinished = sorted(
            (flight.trial for flight in self._inflight.values()), key=lambda t: t.index
        )
        self._inflight.clear()
        # The others go back to the head of the queue, in index order.
        self._pending.extendleft(
            t for t in reversed(unfinished) if t.index not in charged
        )
        for trial in unfinished:
            if trial.index in charged:
                self._attempt_failed(
                    trial,
                    kind=kind,
                    error_type=error_type,
                    message=message,
                    traceback_text="",
                    worker=self._pid_running(trial.index),
                )

    # -- bookkeeping ---------------------------------------------------
    def _pid_running(self, index: int) -> Optional[int]:
        for pid, owned in self._owner.items():
            if owned == index:
                return pid
        return None

    def _attempt_failed(
        self,
        trial: Any,
        kind: str,
        error_type: str,
        message: str,
        traceback_text: str,
        worker: Optional[int],
    ) -> None:
        self._failed_attempts[trial.index] += 1
        if self._failed_attempts[trial.index] <= self._policy.retries:
            self._pending.append(trial)
            return
        failure = _make_failure(
            trial,
            kind=kind,
            error_type=error_type,
            message=message,
            traceback_text=traceback_text,
            worker=worker,
            attempts=self._failed_attempts[trial.index],
        )
        self._failures[trial.index] = failure
        if traceback_text:
            self._causes[trial.index] = WorkerTraceback(traceback_text)


def execute_batch(
    fn: Callable[..., Any],
    batch: Sequence[Any],
    jobs: int,
    policy: FailurePolicy,
    on_success: _OnSuccess = None,
) -> _ExecResult:
    """Run a batch under a policy; returns (successes, failures, causes).

    Serial execution handles ``jobs == 1`` and — unless a timeout needs
    process isolation to be enforceable — single-trial batches.  The
    pool path adds timeout and worker-death recovery on top of the
    shared retry semantics.  It sends one trial per task, keeps
    ``_PREFETCH`` trials per worker dispatched and wakes as each result
    lands.  Each trial's timeout clock runs from its worker's
    announcement of it, not from when it was queued.  A round trip
    costs a few tenths of a millisecond, so trials that cheap gain
    nothing from the pool; the sweep driver runs such sweeps inline.

    ``on_success(trial, payload)``, when given, is called in this
    process once per successful trial as soon as its result is back:
    after each trial inline, as each result lands in the pool.  It is
    never called for a failed attempt.
    """
    use_pool = jobs > 1 and (len(batch) > 1 or policy.trial_timeout is not None)
    if use_pool:
        return _PoolExecutor(fn, batch, jobs, policy, on_success).run()
    return _run_serial(fn, batch, policy, on_success)


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------
class InjectedFault(RuntimeError):
    """Raised (or simulated) by the fault-injection harness."""


class _CorruptPayload:
    """A payload that refuses to pickle — the corrupt-payload mode.

    Crossing the pool boundary raises in the worker's result encoder,
    surfacing as a ``"payload"``-kind attempt failure in the parent.
    Inline execution has no pickle boundary, so corruption is only
    observable with ``jobs > 1``.
    """

    def __init__(self, payload: Any) -> None:
        self.payload = payload

    def __reduce__(self) -> Any:
        raise TypeError("injected corrupt payload refuses to pickle")


@dataclass(frozen=True)
class FaultPlan:
    """Which trials fault, how, and for how many attempts.

    Modes (all keyed off the trial *index*, so a plan is deterministic
    by construction):

    - ``error``: the trial raises :class:`InjectedFault`;
    - ``crash``: the executing worker process dies hard
      (``os._exit``); inline execution raises instead of killing the
      parent process;
    - ``hang``: the trial sleeps ``hang_seconds`` before computing its
      real payload — under a shorter ``trial_timeout`` this presents as
      a hung worker, without one it is merely slow;
    - ``corrupt``: the trial computes its real payload but wraps it in
      an unpicklable envelope, so it cannot cross the pool boundary.

    Every mode recovers after ``recover_after`` faulted attempts: the
    retried trial runs clean with the same seed, which is what lets the
    fault-smoke suite assert byte-identical recovery.
    """

    error: Tuple[int, ...] = ()
    crash: Tuple[int, ...] = ()
    hang: Tuple[int, ...] = ()
    corrupt: Tuple[int, ...] = ()
    recover_after: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.recover_after < 0:
            raise ConfigurationError(
                "recover_after must be >= 0", recover_after=self.recover_after
            )
        if self.hang_seconds <= 0:
            raise ConfigurationError(
                "hang_seconds must be > 0", hang_seconds=self.hang_seconds
            )

    def faulty_indices(self) -> Tuple[int, ...]:
        return tuple(
            sorted(set(self.error) | set(self.crash) | set(self.hang) | set(self.corrupt))
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        count: int,
        fraction: float = 0.3,
        modes: Sequence[str] = ("error", "crash", "hang", "corrupt"),
        recover_after: int = 1,
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """Derive a plan faulting ``<= fraction`` of ``count`` trials.

        The victim set and mode assignment come from a
        :func:`~repro.rng.derive_seed`-seeded generator, so the same
        ``(seed, count, fraction, modes)`` always yields the same plan
        on every platform.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("fraction must be in [0, 1]", fraction=fraction)
        unknown = [m for m in modes if m not in ("error", "crash", "hang", "corrupt")]
        if unknown:
            raise ConfigurationError("unknown fault modes", modes=unknown)
        rng = random.Random(derive_seed(seed, "fault-plan"))
        victims = sorted(rng.sample(range(count), int(count * fraction)))
        buckets: Dict[str, List[int]] = {m: [] for m in modes}
        for position, index in enumerate(victims):
            buckets[modes[position % len(modes)]].append(index)
        return cls(
            error=tuple(buckets.get("error", ())),
            crash=tuple(buckets.get("crash", ())),
            hang=tuple(buckets.get("hang", ())),
            corrupt=tuple(buckets.get("corrupt", ())),
            recover_after=recover_after,
            hang_seconds=hang_seconds,
        )


class FaultInjector:
    """Wraps a trial function with a :class:`FaultPlan` (picklable)."""

    _accepts_attempt = True

    def __init__(self, fn: Callable[..., Any], plan: FaultPlan) -> None:
        self._fn = fn
        self._plan = plan

    def __call__(self, trial: Any, attempt: int = 0) -> Any:
        plan = self._plan
        faulting = attempt < plan.recover_after
        if faulting and trial.index in plan.crash:
            if multiprocessing.current_process().daemon:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedFault(
                f"injected crash (trial {trial.index}, attempt {attempt}; "
                "raised instead of killing the non-worker process)"
            )
        if faulting and trial.index in plan.hang:
            time.sleep(plan.hang_seconds)
        if faulting and trial.index in plan.error:
            raise InjectedFault(
                f"injected error (trial {trial.index}, attempt {attempt})"
            )
        payload = call_trial(self._fn, trial, attempt)
        if faulting and trial.index in plan.corrupt:
            return _CorruptPayload(payload)
        return payload


def inject(fn: Callable[..., Any], plan: FaultPlan) -> FaultInjector:
    """Wrap ``fn`` so the plan's trials fault deterministically."""
    return FaultInjector(fn, plan)
