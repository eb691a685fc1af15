"""Worker builds its own factory per trial: no reachable global state.

Also a read-only look-alike: consulting a module-level constant table
is not a mutation and must stay silent.
"""

from .engine import TrialEngine
from .factory import PoolFactory

WEIGHTS = (1, 2, 3)


def _trial(trial):
    factory = PoolFactory()
    return (trial, factory.next_id(), WEIGHTS[0])


def run_all(trials):
    engine = TrialEngine()
    return engine.run(_trial, trials).payloads
