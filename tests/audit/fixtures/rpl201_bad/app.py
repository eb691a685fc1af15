"""Dispatch site: the worker transitively reaches ``random.random``."""

from .engine import TrialEngine
from .mid import prepare


def _trial(trial):  # expect: RPL201
    return prepare(trial)


def run_all(trials):
    engine = TrialEngine()
    return engine.run(_trial, trials).payloads
