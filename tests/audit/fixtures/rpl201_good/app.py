"""Dispatch site: the worker's whole closure is pure — no findings."""

from .engine import TrialEngine
from .mid import prepare


def _trial(trial):
    return prepare(trial.value, trial.rng)


def run_all(trials):
    engine = TrialEngine()
    return engine.run(_trial, trials).payloads
