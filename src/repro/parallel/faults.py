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
- the engine owns its worker processes: each holds one pipe and runs
  one trial at a time, and the parent sends a trial only to an idle
  worker, so every fault is charged to the one trial its worker held.
  A trial's timeout runs from its send; a hung or dead worker is
  killed or reaped and costs only its own trial an attempt, and it is
  replaced only when there is more to run;
- a :class:`FailurePolicy` chooses between fail-fast (``"raise"``),
  degrade-and-report (``"skip"``), and a bounded failure budget
  (``max_failures=N``), and the engine returns partial results plus
  the full failure roster in a :class:`BatchResult`;
- an optional ``on_success(trial, payload)`` callback sees each
  success as it lands, so callers can store results while the workers
  are still computing.

The fault-smoke test suite and CI job drive both executors through
every failure path with a deterministic fault-injection harness that
lives beside the tests (``tests/parallel/injection.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
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

__all__ = [
    "BatchResult",
    "ExcessiveFailuresError",
    "FailurePolicy",
    "TrialExecutionError",
    "TrialFailure",
    "WorkerTraceback",
    "execute_batch",
]


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
        trial_timeout: Per-trial wall-clock budget in seconds, counted
            from the trial's send to its worker.  Only a worker process
            can be preempted, so a batch with a timeout always runs in
            workers, one at ``jobs=1``.
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
# Attempt execution (shared by the serial and worker paths)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Attempt:
    """One attempt's outcome as shipped back from the executing process
    (or, for a timeout or a worker death, as the parent records it).

    ``kind`` is a failed attempt's :attr:`TrialFailure.kind`.
    """

    ok: bool
    payload: Any
    seconds: float
    worker: int
    kind: str = "error"
    error_type: str = ""
    message: str = ""
    traceback_text: str = ""


def _run_attempt(fn: Callable[..., Any], trial: Any) -> _Attempt:
    """Run one trial in this process, capturing any error."""
    pid = os.getpid()
    start = time.perf_counter()
    try:
        payload = fn(trial)
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


def _serve(conn: Any, fn: Callable[..., Any]) -> None:
    """Worker loop: run each trial the parent sends, send back its outcome.

    Runs until the parent kills the worker.  A payload that fails to
    pickle fails before any byte is written, so the pipe stays clean
    and a ``"payload"`` failure goes back in its place.
    """
    while True:
        attempt = _run_attempt(fn, conn.recv())
        try:
            conn.send(attempt)
        except Exception as exc:
            conn.send(
                replace(
                    attempt,
                    ok=False,
                    payload=None,
                    kind="payload",
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
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
        for _ in range(policy.attempts_per_trial):
            start = time.perf_counter()
            try:
                payload = fn(trial)
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
# Worker execution with retries, timeouts, and worker-death recovery
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """One worker process, the parent's end of its pipe, and the trial
    it was last sent with that trial's deadline."""

    proc: Any
    conn: Any
    trial: Any = None
    deadline: Optional[float] = None

    def stop(self) -> Optional[int]:
        """Kill and join the process; returns its exit code."""
        self.proc.kill()
        self.proc.join()
        self.conn.close()
        return self.proc.exitcode


class _WorkerExecutor:
    """Runs one batch over engine-owned worker processes.

    Up to ``min(jobs, len(batch))`` daemonic workers are forked, each
    with one duplex pipe.  The parent sends a trial only to an idle
    worker, so it always knows which trial each worker holds, and it
    blocks on the busy workers' pipes until a result lands or the
    nearest deadline passes.  A trial's ``trial_timeout`` runs from its
    send.  A timeout or a death kills or reaps only that worker and
    charges only its trial; a result already read, or waiting in the
    pipe, is never charged.  A dead idle worker is replaced before a
    trial is sent to it, and no worker outlives :meth:`run`.
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
        order = sorted(batch, key=lambda t: t.index)
        self._size = min(jobs, len(order))
        self._policy = policy
        self._on_success = on_success
        self._pending: Deque[Any] = deque(order)
        self._failed_attempts: Dict[int, int] = {t.index: 0 for t in order}
        self._idle: List[_Worker] = []
        self._busy: List[_Worker] = []
        self._successes: Dict[int, _Attempt] = {}
        self._failures: Dict[int, TrialFailure] = {}
        self._causes: Dict[int, BaseException] = {}

    def run(self) -> _ExecResult:
        from multiprocessing.connection import wait

        try:
            while (self._pending or self._busy) and not self._policy.over_budget(
                len(self._failures)
            ):
                while self._pending and len(self._busy) < self._size:
                    self._send(self._pending.popleft())
                ready = wait([w.conn for w in self._busy], self._wait_seconds())
                for worker in [w for w in self._busy if w.conn in ready]:
                    self._receive(worker)
                self._reap_timeouts()
        finally:
            for worker in self._idle + self._busy:
                worker.stop()
        return self._successes, self._failures, self._causes

    def _wait_seconds(self) -> Optional[float]:
        """Time left until the nearest deadline (``None``: no timeout)."""
        if self._policy.trial_timeout is None:
            return None
        nearest = min(w.deadline for w in self._busy)
        return max(0.0, nearest - time.perf_counter())

    def _send(self, trial: Any) -> None:
        worker = self._idle.pop() if self._idle else None
        if worker is None or not worker.proc.is_alive():
            if worker is not None:
                worker.stop()
            parent, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_serve, args=(child, self._fn), daemon=True
            )
            proc.start()
            child.close()
            worker = _Worker(proc, parent)
        worker.trial = trial
        self._busy.append(worker)  # stopped by run's finally if send raises
        worker.conn.send(trial)
        if self._policy.trial_timeout is not None:
            worker.deadline = time.perf_counter() + self._policy.trial_timeout

    def _receive(self, worker: _Worker) -> None:
        self._busy.remove(worker)
        try:
            attempt = worker.conn.recv()
        except (EOFError, OSError):
            exitcode = worker.stop()
            death = _Attempt(
                ok=False,
                payload=None,
                seconds=0.0,
                worker=worker.proc.pid,
                kind="worker-death",
                error_type="WorkerDeath",
                message=f"worker process died mid-trial (exitcode {exitcode})",
            )
            self._charge(worker.trial, death)
            return
        self._idle.append(worker)
        if not attempt.ok:
            self._charge(worker.trial, attempt)
            return
        self._successes[worker.trial.index] = attempt
        if self._on_success is not None:
            self._on_success(worker.trial, attempt.payload)

    def _reap_timeouts(self) -> None:
        timeout = self._policy.trial_timeout
        if timeout is None:
            return
        now = time.perf_counter()
        # A result waiting in the pipe has landed: the next wait reads it.
        expired = [w for w in self._busy if now >= w.deadline and not w.conn.poll()]
        for worker in expired:
            self._busy.remove(worker)
            worker.stop()
            hung = _Attempt(
                ok=False,
                payload=None,
                seconds=timeout,
                worker=worker.proc.pid,
                kind="timeout",
                error_type="TimeoutError",
                message=f"trial exceeded trial_timeout={timeout:g}s",
            )
            self._charge(worker.trial, hung)

    def _charge(self, trial: Any, attempt: _Attempt) -> None:
        """Count a failed attempt: requeue the trial or record its failure."""
        self._failed_attempts[trial.index] += 1
        if self._failed_attempts[trial.index] <= self._policy.retries:
            self._pending.append(trial)
            return
        self._failures[trial.index] = _make_failure(
            trial,
            kind=attempt.kind,
            error_type=attempt.error_type,
            message=attempt.message,
            traceback_text=attempt.traceback_text,
            worker=attempt.worker,
            attempts=self._failed_attempts[trial.index],
        )
        if attempt.traceback_text:
            self._causes[trial.index] = WorkerTraceback(attempt.traceback_text)


def execute_batch(
    fn: Callable[..., Any],
    batch: Sequence[Any],
    jobs: int,
    policy: FailurePolicy,
    on_success: _OnSuccess = None,
) -> _ExecResult:
    """Run a batch under a policy; returns (successes, failures, causes).

    A batch runs in worker processes when a trial timeout needs one to
    be enforceable (at every ``jobs``, so a timed batch at ``jobs=1``
    runs in one worker) or when ``jobs > 1`` and there is more than one
    trial; otherwise it runs inline.  The worker path adds timeout and
    worker-death recovery on top of the shared retry semantics, with
    one trial per worker at a time and each timeout counted from the
    trial's send.  A round trip costs a few tenths of a millisecond,
    so trials that cheap gain nothing from workers; the sweep driver
    runs such sweeps inline.

    ``on_success(trial, payload)``, when given, is called in this
    process once per successful trial as soon as its result is back:
    after each trial inline, as each result is read from a worker.  It
    is never called for a failed attempt.
    """
    if policy.trial_timeout is not None or (jobs > 1 and len(batch) > 1):
        return _WorkerExecutor(fn, batch, jobs, policy, on_success).run()
    return _run_serial(fn, batch, policy, on_success)
