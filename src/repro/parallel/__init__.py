"""Parallel trial execution and result caching.

The paper's 13 artifacts and the scenario sweeps are batches of
independent seeded computations — exactly the workload shape that fans
out over processes without coordination (one trial per artifact in
:func:`repro.experiments.run_artifacts`, one per spec in
:func:`repro.sweeps.run_sweep`).  This package provides the
infrastructure that lets them scale past one core while staying
bit-reproducible:

- :mod:`repro.parallel.trials` — a :class:`TrialEngine` that executes
  independent :class:`Trial` units serially or over worker processes
  it owns.  Each trial carries its own seed, so the results are
  identical regardless of worker count or scheduling order;
- :mod:`repro.parallel.cache` — a content-keyed on-disk
  :class:`ResultCache` that lets re-runs and ``--fast`` CI sweeps skip
  completed work.  Keys hash the experiment id, the config dict, the
  seed, and a code-version tag, so any input change invalidates;
- :mod:`repro.parallel.metrics` — per-trial timing/worker records so
  speedups (and cache-driven *non*-executions) are observable;
- :mod:`repro.parallel.faults` — the fault-tolerance layer: per-trial
  failure capture (:class:`TrialFailure`), bounded deterministic
  retries, per-trial timeouts, a hung or dead worker replaced at the
  cost of its own trial alone, and graceful degradation via
  :class:`FailurePolicy`.
"""

from .cache import CODE_VERSION, ResultCache, cache_key
from .faults import (
    BatchResult,
    ExcessiveFailuresError,
    FailurePolicy,
    TrialExecutionError,
    TrialFailure,
)
from .metrics import METRICS, PhaseTimingCollector, TrialMetricsCollector, TrialRecord
from .trials import Trial, TrialEngine, resolve_jobs

__all__ = [
    "BatchResult",
    "CODE_VERSION",
    "ExcessiveFailuresError",
    "FailurePolicy",
    "METRICS",
    "PhaseTimingCollector",
    "ResultCache",
    "Trial",
    "TrialEngine",
    "TrialExecutionError",
    "TrialFailure",
    "TrialMetricsCollector",
    "TrialRecord",
    "cache_key",
    "resolve_jobs",
]
