"""The sweep driver: thousands of scenario specs through the trial engine.

One sweep = one batch of :class:`~repro.parallel.trials.Trial`s, one
trial per :class:`~repro.scenarios.spec.ScenarioSpec`.  Three rules
make sweeps bit-reproducible and safely cacheable:

1. **Seeds come from content, not position.**  Each trial's seed is
   ``derive_seed(root_seed, "sweep:" + spec.digest())``
   (:func:`sweep_seed`), so reordering, filtering, or extending the
   spec list never changes any individual scenario's trajectory.
2. **Cache keys carry the full spec digest.**  A cached summary is
   keyed on ``(SWEEP_EXPERIMENT_ID, {"spec_digest": ...}, seed)`` —
   the digest covers *every* spec field, so two specs differing in any
   knob (a schedule entry, a partition window, the engine) can never
   collide on one entry.
3. **Workers rebuild from canonical JSON.**  The spec travels in the
   trial params as its canonical serialized form and is reconstructed
   in the worker, so the executed scenario is exactly the hashed one.

The driver resolves cache hits in the parent before dispatch: a warm
re-run of an identical sweep executes zero trials regardless of
``jobs``.  Executed results are stored as they land, while the workers
are still computing the rest, so a sweep that aborts on a failure
keeps every spec that finished before it and a re-run executes only
the others.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..parallel import FailurePolicy, ResultCache, Trial, TrialEngine
from ..rng import derive_seed
from ..scenarios.spec import ScenarioSpec, run_scenario

__all__ = ["SWEEP_EXPERIMENT_ID", "SweepResult", "run_sweep", "sweep_seed"]

#: Experiment id sweeps run (and cache) under.
SWEEP_EXPERIMENT_ID = "sweep"

#: Artifact schema version (bumped on any layout change).
ARTIFACT_SCHEMA = 1


def sweep_seed(root_seed: int, spec: ScenarioSpec) -> int:
    """Content-derived trial seed: stable under reordering/slicing."""
    return derive_seed(root_seed, f"sweep:{spec.digest()}")


def _sweep_worker(trial: Trial) -> Dict[str, object]:
    """Module-level (picklable) worker: rebuild the spec, run, summarize."""
    spec = ScenarioSpec.from_dict(json.loads(trial.param("spec")))
    return run_scenario(spec, seed=trial.seed)


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one sweep, in input-spec order.

    ``summaries[i]`` is the :func:`~repro.scenarios.spec.run_scenario`
    summary for ``specs[i]`` — or ``None`` when that trial failed under
    a ``"skip"`` policy.  ``executed``/``cached`` count how the
    summaries were obtained (they describe *this run*, so they are
    excluded from :meth:`to_artifact`, which must be identical between
    a cold and a warm run).
    """

    specs: Tuple[ScenarioSpec, ...]
    summaries: Tuple[Optional[Dict[str, object]], ...]
    root_seed: int
    executed: int
    cached: int
    failures: Tuple[Tuple[int, str], ...] = ()

    @property
    def failed(self) -> int:
        return len(self.failures)

    def to_artifact(self) -> Dict[str, object]:
        """Deterministic artifact form: content only, no run facts.

        Identical sweeps produce byte-identical artifacts whether the
        summaries came from execution (any ``jobs``) or from cache.
        """
        return {
            "schema": ARTIFACT_SCHEMA,
            "root_seed": self.root_seed,
            "num_specs": len(self.specs),
            "summaries": [
                {"spec": spec.to_dict(), "summary": summary}
                for spec, summary in zip(self.specs, self.summaries)
            ],
        }


def run_sweep(
    specs: Sequence[ScenarioSpec],
    root_seed: int = 0,
    jobs: int = 1,  # repro-lint: disable=RPL401 jobs only fans out independent trials; summaries are bit-identical for every value
    cache: Optional[ResultCache] = None,
    policy: Optional[FailurePolicy] = None,  # repro-lint: disable=RPL401 retries reuse the trial's seed, so a stored summary never depends on the policy
) -> SweepResult:
    """Run every spec (cache-aware) and return summaries in input order.

    Cache hits are resolved in the parent before the batch is
    dispatched, so a fully warm sweep performs zero trial executions.
    Each executed summary is stored in ``cache`` as soon as it lands.
    Failures follow ``policy`` (default: strict raise); under a
    ``"skip"`` policy a failed spec's summary slot holds ``None`` and
    the failure is recorded on the result.  Under ``"raise"`` the
    summaries stored before the failure stay in the cache.
    """
    if not specs:
        raise ConfigurationError("sweep needs at least one spec")
    # One serialization per spec: its digest and its trial params.
    canonical = [spec.canonical_json() for spec in specs]
    digests = [ScenarioSpec.digest_of(text) for text in canonical]
    seeds = [derive_seed(root_seed, f"sweep:{d}") for d in digests]
    summaries: List[Optional[Dict[str, object]]] = [None] * len(specs)
    cached = 0
    pending: List[Trial] = []
    for position, spec in enumerate(specs):
        if cache is not None:
            hit = cache.get(
                SWEEP_EXPERIMENT_ID,
                {"spec_digest": digests[position]},
                seeds[position],
            )
            if hit is not None:
                summaries[position] = hit
                cached += 1
                continue
        pending.append(
            Trial(
                experiment_id=SWEEP_EXPERIMENT_ID,
                index=position,
                seed=seeds[position],
                params=(("spec", canonical[position]),),
            )
        )
    failures: List[Tuple[int, str]] = []
    if pending:

        def store(trial: Trial, payload: Dict[str, object]) -> None:
            cache.put(
                SWEEP_EXPERIMENT_ID,
                {"spec_digest": digests[trial.index]},
                trial.seed,
                payload,
            )

        engine = TrialEngine(jobs=jobs, policy=policy)
        batch = engine.run(
            _sweep_worker, pending, on_success=None if cache is None else store
        )
        for index, payload in batch.completed().items():
            summaries[index] = payload
        for failure in batch.failures:
            failures.append((failure.index, failure.message))
    return SweepResult(
        specs=tuple(specs),
        summaries=tuple(summaries),
        root_seed=root_seed,
        executed=len(pending) - len(failures),
        cached=cached,
        failures=tuple(failures),
    )
