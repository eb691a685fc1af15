"""The worker reaches the shared counter two modules away: its results
depend on how many trials any earlier run in the same process took."""

from .engine import TrialEngine
from .store import next_pool_id


def _trial(trial):  # expect: RPL203
    return (trial, next_pool_id())


def run_all(trials):
    engine = TrialEngine()
    return engine.run(_trial, trials).payloads
