"""Experiment registry: one regenerator per paper table/figure.

Each module exposes ``run(seed=0, fast=False, jobs=1) ->
ExperimentResult``; the :data:`REGISTRY` maps artifact ids to those
callables and the :mod:`repro.experiments.runner` CLI executes them.
:func:`run_experiment` is the single entry point: it validates the
worker budget, consults the optional on-disk result cache, and only
then dispatches to the experiment module.
"""

import inspect
from typing import Callable, Dict, Optional

from ..errors import ConfigurationError
from ..parallel import FailurePolicy, ResultCache, resolve_jobs
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

__all__ = ["REGISTRY", "ExperimentResult", "run_experiment"]

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


def run_experiment(
    experiment_id: str,
    seed: int = 0,
    fast: bool = False,
    jobs: int = 1,  # repro-lint: disable=RPL401 jobs only fans out independent trials; results are bit-identical for every value
    cache: Optional[ResultCache] = None,
    policy: Optional[FailurePolicy] = None,  # repro-lint: disable=RPL401 retries reuse the trial's seed, so a recovered run is bit-identical to an undisturbed one
    engine: Optional[str] = None,
    delay_model: Optional[str] = None,
) -> ExperimentResult:
    """Run one experiment by id (raises KeyError for unknown ids).

    Parameters:
        seed: Root experiment seed.
        fast: Reduced, CI-sized workload.
        jobs: Worker processes for the experiment's independent trials
            (validated here; must be an int >= 1).  Results are
            bit-identical for every value of ``jobs``.
        cache: Optional :class:`~repro.parallel.ResultCache`.  On a hit
            the stored result is returned without executing any trial;
            on a miss the computed result is stored.  The key covers
            the experiment id, the config (``fast``), the seed, and the
            cache's code-version tag, so any input change recomputes.
            An entry that fails to deserialize is counted as a
            corrupt miss, discarded and recomputed rather than raising.
        policy: Optional :class:`~repro.parallel.FailurePolicy` for the
            experiment's trial engine(s): bounded same-seed retries,
            per-trial timeouts, and degradation mode.  Deliberately
            *not* part of the cache key — retries reuse the trial's
            seed, so a recovered run's result is bit-identical to an
            undisturbed one.  A trial that exhausts its retries
            surfaces as a
            :class:`~repro.parallel.TrialExecutionError` naming the
            reproducing ``(experiment_id, index, seed)``.
        engine: Optional simulation engine override (see
            :data:`repro.netsim.ENGINES`) for experiments backed by
            the propagation simulators (e.g. ``figure7``).  ``None``
            keeps each experiment's default and leaves cache keys
            untouched; a non-default engine joins the cache config, so
            engine variants never collide.  Passing an engine to an
            experiment that does not take one raises
            :class:`~repro.errors.ConfigurationError` instead of
            silently ignoring the override.
        delay_model: Optional calibrated propagation-delay model name
            (see :data:`repro.netsim.latency.DELAY_MODELS`) for
            experiments that take one (``figure7``, with
            ``engine="graph"``).  Joins the cache config like
            ``engine``; experiments without the knob raise
            :class:`~repro.errors.ConfigurationError`.
    """
    fn = REGISTRY[experiment_id]
    jobs = resolve_jobs(jobs)
    config = {"fast": bool(fast)}
    kwargs = {}
    if engine is not None:
        if "engine" not in inspect.signature(fn).parameters:
            raise ConfigurationError(
                "experiment does not accept an engine override",
                experiment=experiment_id,
                engine=engine,
            )
        config["engine"] = engine
        kwargs["engine"] = engine
    if delay_model is not None:
        if "delay_model" not in inspect.signature(fn).parameters:
            raise ConfigurationError(
                "experiment does not accept a delay-model override",
                experiment=experiment_id,
                delay_model=delay_model,
            )
        config["delay_model"] = delay_model
        kwargs["delay_model"] = delay_model
    if cache is not None:
        payload = cache.get(experiment_id, config, seed)
        if payload is not None:
            try:
                return ExperimentResult.from_dict(payload)
            except (KeyError, TypeError, ValueError):
                # Not a hit after all: the entry is a corrupt miss.
                cache.hits -= 1
                cache.misses += 1
                cache.corrupt_entries += 1
                cache.discard(experiment_id, config, seed)
    result = fn(seed=seed, fast=fast, jobs=jobs, policy=policy, **kwargs)
    if cache is not None:
        cache.put(experiment_id, config, seed, result.to_dict())
    return result
