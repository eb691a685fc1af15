"""Good: module-level workers; parent-side callbacks may be lambdas."""

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
    return TrialEngine(jobs=2).run(work, trials)


def sweep(trials, jobs: int = 1):
    return TrialEngine(jobs=jobs).run(_seed_trial, trials)


def sweep_with_callback(engine, trials, landed):
    # on_success runs in the parent process: a lambda is fine in every
    # slot except the worker (first argument).
    return engine.run(
        _seed_trial,
        trials,
        on_success=lambda trial, payload: landed.append(payload),
    )


def plain_map(values):
    # .map on a non-engine receiver is out of scope.
    return list(map(lambda v: v + 1, values))


def other_run(runner, trials):
    # .run on a receiver that is not an engine is out of scope.
    return runner.run(lambda trial: trial.seed, trials)
