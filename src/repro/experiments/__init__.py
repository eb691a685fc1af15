"""Experiment registry: one regenerator per paper table/figure.

Each module exposes ``run(seed=0, fast=False) -> ExperimentResult``
(figure7's also takes ``engine`` and ``delay_model``); the
:data:`REGISTRY` maps artifact ids to those callables.
:func:`run_artifacts` is the one place they are run: it resolves cache
hits here, then runs the misses as one batch of trials (one trial per
artifact) through a single :class:`~repro.parallel.TrialEngine`, and
stores each result as it lands.  :func:`run_experiment` is that batch
for one id; the :mod:`repro.experiments.runner` CLI runs every chosen
id in one batch.
"""

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..parallel import (
    ExcessiveFailuresError,
    FailurePolicy,
    ResultCache,
    Trial,
    TrialEngine,
    TrialExecutionError,
    TrialFailure,
    resolve_jobs,
)
from . import (
    figure3,
    figure4,
    figure6,
    figure7,
    figure8,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)
from .base import ExperimentResult

__all__ = [
    "REGISTRY",
    "ArtifactBatch",
    "ExperimentResult",
    "run_artifacts",
    "run_experiment",
    "unsupported_overrides",
]

REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "table7": table7.run,
    "table8": table8.run,
    "figure3": figure3.run,
    "figure4": figure4.run,
    "figure6": figure6.run,
    "figure7": figure7.run,
    "figure8": figure8.run,
}


def unsupported_overrides(
    experiment_ids: Sequence[str],
    engine: Optional[str] = None,
    delay_model: Optional[str] = None,
) -> Dict[str, List[str]]:
    """Override name -> the ids whose ``run`` takes no such parameter.

    Only overrides that are given (not ``None``) are checked, so an
    empty result means every id accepts every given override.
    """
    given = {"engine": engine, "delay_model": delay_model}
    misfits = {}
    for name, value in given.items():
        if value is None:
            continue
        ids = [
            experiment_id
            for experiment_id in experiment_ids
            if name not in inspect.signature(REGISTRY[experiment_id]).parameters
        ]
        if ids:
            misfits[name] = ids
    return misfits


def _artifact_trial(trial: Trial) -> ExperimentResult:
    """Module-level (picklable) worker: one artifact at the trial's seed.

    The trial's params are the artifact's cache config (``fast`` plus
    any override), which are exactly its ``run`` keyword arguments.
    """
    return REGISTRY[trial.experiment_id](seed=trial.seed, **trial.param_dict)


@dataclass(frozen=True)
class ArtifactBatch:
    """What one :func:`run_artifacts` call produced.

    Attributes:
        results: Id -> result for every artifact that finished or was
            served from the cache.
        cached: Ids served from the cache, in the order asked for.
        failures: Each artifact that failed for good (under a
            ``"skip"`` policy), in the order asked for.
        aborted: More artifacts failed than the policy's
            ``max_failures`` allows, so the batch stopped; the ids in
            neither ``results`` nor ``failures`` never ran.
    """

    results: Dict[str, ExperimentResult]
    cached: Tuple[str, ...] = ()
    failures: Tuple[TrialFailure, ...] = ()
    aborted: bool = False


def run_artifacts(
    experiment_ids: Sequence[str],
    seed: int = 0,
    fast: bool = False,
    jobs: int = 1,  # repro-lint: disable=RPL401 jobs only fans out independent artifacts; results are bit-identical for every value
    cache: Optional[ResultCache] = None,
    policy: Optional[FailurePolicy] = None,  # repro-lint: disable=RPL401 retries reuse the artifact's seed, so a recovered run is bit-identical to an undisturbed one
    engine: Optional[str] = None,
    delay_model: Optional[str] = None,
) -> ArtifactBatch:
    """Run several artifacts as one batch (raises KeyError for unknown ids).

    Parameters:
        experiment_ids: Artifacts to run; a repeated id runs once.
        seed: Root experiment seed, shared by every artifact.
        fast: Reduced, CI-sized workloads.
        jobs: Worker processes across the batch's artifacts (validated
            here; must be an int >= 1).  A batch of one runs inline
            unless ``policy`` sets a timeout.  Results are
            bit-identical for every value of ``jobs``.
        cache: Optional :class:`~repro.parallel.ResultCache`.  Hits are
            returned without running anything; each computed result is
            stored as soon as it lands.  The key covers the artifact
            id, the config (``fast`` and any override), the seed and
            the cache's code-version tag, so any input change
            recomputes.  An entry that fails to deserialize is counted
            as a corrupt miss, discarded and recomputed.
        policy: Optional :class:`~repro.parallel.FailurePolicy` for the
            batch, counted in artifacts: same-seed retries, a timeout
            per artifact, and the degradation mode.  Only a worker
            process can enforce a timeout, so a timed batch always runs
            in workers, one at ``jobs=1``.  Not part of the cache key:
            a recovered run is bit-identical to an undisturbed one.
            Under the default strict policy the first failure raises
            :class:`~repro.parallel.TrialExecutionError` naming the
            artifact; results stored before it stay in the cache.
        engine: Optional simulation engine override (see
            :data:`repro.netsim.ENGINES`) for artifacts backed by the
            propagation simulators (``figure7``).  ``None`` keeps each
            artifact's default and leaves cache keys untouched; a given
            engine joins the cache config, so engine variants never
            collide.
        delay_model: Optional calibrated propagation-delay model name
            (see :data:`repro.netsim.latency.DELAY_MODELS`) for
            artifacts that take one (``figure7``, with
            ``engine="graph"``).  Joins the cache config like
            ``engine``.

    Raises:
        ConfigurationError: ``engine`` or ``delay_model`` is given and
            some chosen artifact takes no such parameter; nothing runs.
    """
    ids = list(dict.fromkeys(experiment_ids))
    unknown = [experiment_id for experiment_id in ids if experiment_id not in REGISTRY]
    if unknown:
        raise KeyError(", ".join(unknown))
    jobs = resolve_jobs(jobs)
    misfits = unsupported_overrides(ids, engine=engine, delay_model=delay_model)
    if misfits:
        raise ConfigurationError(
            "override not accepted by every chosen experiment", **misfits
        )
    config: Dict[str, object] = {"fast": bool(fast)}
    if engine is not None:
        config["engine"] = engine
    if delay_model is not None:
        config["delay_model"] = delay_model
    results: Dict[str, ExperimentResult] = {}
    cached: List[str] = []
    pending: List[Trial] = []
    params = tuple(sorted(config.items()))
    for index, experiment_id in enumerate(ids):
        payload = None if cache is None else cache.get(experiment_id, config, seed)
        if payload is not None:
            try:
                results[experiment_id] = ExperimentResult.from_dict(payload)
            except (KeyError, TypeError, ValueError):
                # Not a hit after all: the entry is a corrupt miss.
                cache.hits -= 1
                cache.misses += 1
                cache.corrupt_entries += 1
                cache.discard(experiment_id, config, seed)
            else:
                cached.append(experiment_id)
                continue
        pending.append(Trial(experiment_id, index, seed, params))

    def land(trial: Trial, result: ExperimentResult) -> None:
        results[trial.experiment_id] = result
        if cache is not None:
            cache.put(trial.experiment_id, config, trial.seed, result.to_dict())

    failures: Tuple[TrialFailure, ...] = ()
    aborted = False
    if pending:
        try:
            batch = TrialEngine(jobs=jobs, policy=policy).run(
                _artifact_trial, pending, on_success=land
            )
            failures = batch.failures
        except ExcessiveFailuresError as exc:
            failures, aborted = exc.failures, True
    return ArtifactBatch(results, tuple(cached), failures, aborted)


def run_experiment(
    experiment_id: str,
    seed: int = 0,
    fast: bool = False,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[FailurePolicy] = None,
    engine: Optional[str] = None,
    delay_model: Optional[str] = None,
) -> ExperimentResult:
    """Run one experiment by id: :func:`run_artifacts` for that id alone.

    It runs inline unless ``policy`` sets a timeout, which only a
    worker process can enforce; then it runs in one worker.
    An artifact that fails for good raises
    :class:`~repro.parallel.TrialExecutionError`, whatever the policy's
    mode; the other arguments are :func:`run_artifacts`'s.
    """
    batch = run_artifacts(
        [experiment_id],
        seed=seed,
        fast=fast,
        jobs=jobs,
        cache=cache,
        policy=policy,
        engine=engine,
        delay_model=delay_model,
    )
    if batch.failures:
        raise TrialExecutionError(batch.failures[0])
    return batch.results[experiment_id]
