"""Deterministic parallel execution of independent simulation trials.

A *trial* is one self-contained unit of stochastic work: a seeded
simulation or generator run plus its reduction to a compact, picklable
payload.  The :class:`TrialEngine` executes a batch of trials either
inline (``jobs=1``) or across a ``multiprocessing`` pool (``jobs>1``)
and always returns payloads in trial-index order, so downstream code is
oblivious to scheduling.

Determinism rests on two rules:

1. every trial owns its seed — derived from
   ``(root_seed, experiment_id, trial_index)`` via :func:`trial_seed`,
   or passed explicitly (an artifact trial takes the run's root seed;
   a sweep derives each spec's seed from its digest);
2. trial functions must build *all* randomness from ``trial.seed``
   (through :class:`~repro.rng.RngStreams`) and must not touch shared
   mutable state.  Under those rules, worker count, submission order,
   and OS scheduling cannot perturb results — the property pinned by
   ``tests/parallel/test_determinism.py``.

Failure semantics live in :mod:`repro.parallel.faults`: the engine
takes a :class:`~repro.parallel.faults.FailurePolicy` and delegates
execution to its fault-tolerant executors, so one raising trial no
longer destroys the whole batch — it is retried (same seed, so a
retried success is bit-identical), and final failures surface as
structured :class:`~repro.parallel.faults.TrialFailure` records or a
chained :class:`~repro.parallel.faults.TrialExecutionError` naming the
reproducing ``(experiment_id, index, seed)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..rng import derive_seed
from .faults import (
    BatchResult,
    ExcessiveFailuresError,
    FailurePolicy,
    TrialExecutionError,
    execute_batch,
)
from .metrics import METRICS, TrialMetricsCollector, TrialRecord

__all__ = [
    "Trial",
    "TrialEngine",
    "resolve_jobs",
    "trial_seed",
]


def trial_seed(root_seed: int, experiment_id: str, trial_index: int) -> int:
    """Derive the seed for one trial of one experiment.

    The derivation goes through :func:`repro.rng.derive_seed`, so child
    seeds are statistically independent across trial indices and across
    experiments, and stable across platforms and Python versions.
    """
    if not experiment_id:
        raise ConfigurationError("experiment_id must be non-empty")
    if trial_index < 0:
        raise ConfigurationError(
            "trial_index must be non-negative", index=trial_index
        )
    return derive_seed(root_seed, f"{experiment_id}:trial:{trial_index}")


def resolve_jobs(jobs: Any) -> int:
    """Validate a worker count (``--jobs``); returns it as a plain int."""
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigurationError("jobs must be an integer", jobs=jobs)
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1", jobs=jobs)
    return jobs


@dataclass(frozen=True)
class Trial:
    """One unit of seeded work.

    Attributes:
        experiment_id: Owning experiment, also the metrics label.
        index: Position within the experiment's trial sweep; results
            are always returned in ascending index order.
        seed: Root seed for *all* randomness inside the trial.
        params: Extra picklable parameters as a tuple of ``(name,
            value)`` pairs (a tuple keeps the dataclass hashable).
    """

    experiment_id: str
    index: int
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def param(self, name: str, default: Any = None) -> Any:
        return self.param_dict.get(name, default)


class TrialEngine:
    """Executes batches of independent trials serially or in a pool.

    Parameters:
        jobs: Worker processes; ``1`` executes inline in this process.
        collector: Destination for per-trial timing and failure records
            (defaults to the process-wide
            :data:`~repro.parallel.metrics.METRICS`).
        policy: Failure semantics
            (:class:`~repro.parallel.faults.FailurePolicy`); the
            default is strict — no retries, no timeout, raise on the
            first final failure, matching the engine's historical
            behaviour minus the lost-batch bug.
    """

    def __init__(
        self,
        jobs: int = 1,
        collector: Optional[TrialMetricsCollector] = None,
        policy: Optional[FailurePolicy] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.collector = METRICS if collector is None else collector
        self.policy = FailurePolicy.strict() if policy is None else policy

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[[Trial], Any],
        trials: Iterable[Trial],
        on_success: Optional[Callable[[Trial, Any], None]] = None,
    ) -> BatchResult:
        """Run every trial under the engine's policy; partial results OK.

        ``fn`` must be a module-level callable (picklable by reference)
        and every payload must be picklable.  Payload order — and,
        given rule-abiding trial functions, the payloads themselves —
        do not depend on ``jobs``, submission order, or how many
        retries a trial needed (retries reuse the trial's seed).

        ``on_success(trial, payload)``, when given, is called in this
        process once per successful trial as soon as its result is
        back (inline: after each trial), in landing order rather than
        index order, and never for a failed attempt.  Trials that
        succeeded before a ``"raise"`` abort have already been passed
        to it when the error propagates.

        Raises:
            TrialExecutionError: under a ``"raise"`` policy, chained
                from the failing trial's (possibly remote) traceback
                and naming its ``(experiment_id, index, seed)``.
            ExcessiveFailuresError: under a ``"skip"`` policy whose
                ``max_failures`` budget the batch exceeded; names every
                failed trial.
        """
        batch = list(trials)
        indices = [t.index for t in batch]
        if len(set(indices)) != len(indices):
            raise ConfigurationError("trial indices must be unique", indices=indices)
        if not batch:
            return BatchResult((), (), ())
        successes, failures, causes = execute_batch(
            fn, batch, self.jobs, self.policy, on_success
        )
        ordered = sorted(batch, key=lambda trial: trial.index)
        for trial in ordered:
            attempt = successes.get(trial.index)
            if attempt is not None:
                self.collector.record(
                    TrialRecord(
                        trial.experiment_id, trial.index, attempt.seconds, attempt.worker
                    )
                )
        failure_list = tuple(failures[index] for index in sorted(failures))
        for failure in failure_list:
            self.collector.record_failure(failure)
        if failure_list:
            if self.policy.mode == "raise":
                first = failure_list[0]
                error = TrialExecutionError(first)
                cause = causes.get(first.index)
                if cause is not None:
                    raise error from cause
                raise error
            if self.policy.max_failures is not None and len(failure_list) > (
                self.policy.max_failures
            ):
                raise ExcessiveFailuresError(failure_list, self.policy.max_failures)
        payloads = tuple(
            successes[trial.index].payload if trial.index in successes else None
            for trial in ordered
        )
        return BatchResult(tuple(ordered), payloads, failure_list)
