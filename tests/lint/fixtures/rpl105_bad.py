# repro-lint: disable-file  -- intentional rule-trigger fixture for tests/lint
"""Bad: unpicklable callables in the trial engine's worker slot."""

import functools

from repro.parallel import TrialEngine


def sweep_with_lambda(trials):
    engine = TrialEngine(jobs=4)
    return engine.run(lambda trial: trial.seed, trials)  # expect: RPL105


def sweep_with_closure(trials, scale):
    def worker(trial):
        return trial.seed * scale

    return TrialEngine(jobs=2).run(worker, trials)  # expect: RPL105


def sweep_with_keyword_lambda(engine, trials):
    return engine.run(
        fn=lambda trial: trial.seed,  # expect: RPL105
        trials=trials,
    )


def sweep_with_partial_lambda(engine, trials):
    return engine.run(functools.partial(lambda t: t.seed), trials)  # expect: RPL105


def sweep_from_inner_function(trials):
    def worker(trial):
        return trial.seed

    def run():
        # The closure is found through the enclosing function's scope.
        return TrialEngine(jobs=2).run(worker, trials)  # expect: RPL105

    return run()
