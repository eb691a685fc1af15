"""Good: module-level workers; parent-side predicates may be lambdas."""

from repro.parallel import TrialEngine


def _seed_trial(trial):
    return {"seed": trial.seed}


def work(trial):
    return trial.seed


def local_work(trials):
    # A nested def named like the module-level worker does not make
    # dispatches elsewhere in the module nested.
    def work(trial):
        return trial.seed + 1

    return [work(trial) for trial in trials]


def sweep_shared_name(trials):
    return TrialEngine(jobs=2).map(work, trials)


def sweep(trials, jobs: int = 1):
    return TrialEngine(jobs=jobs).map(_seed_trial, trials)


def search(engine, trials):
    # Predicate and fallback run in the parent process: lambdas are fine
    # in every slot except the worker (first argument).
    return engine.first_match(
        _seed_trial,
        trials,
        predicate=lambda payload: payload["seed"] > 0,
        fallback=lambda payload: True,
    )


def plain_map(values):
    # .map on a non-engine receiver is out of scope.
    return list(map(lambda v: v + 1, values))
