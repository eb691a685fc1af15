# repro-lint: disable-file  -- intentional rule-trigger fixture for tests/lint
"""Bad: module-global mutable state mutated from functions/methods.

This is the MiningPool pool-id bug class: ids handed out by a
process-global counter depend on what else ran earlier in the process.
"""

import itertools

_POOL_IDS = itertools.count()
_REGISTRY = {}
_HISTORY = []
_TOTAL = dict()


class MiningPoolish:
    def __init__(self) -> None:
        self.pool_id = next(_POOL_IDS)  # expect: RPL102


def register(name: str, value: object) -> None:
    _REGISTRY[name] = value  # expect: RPL102


def log_event(event: str) -> None:
    _HISTORY.append(event)  # expect: RPL102


def tally(key: str) -> None:
    _TOTAL.update({key: 1})  # expect: RPL102


def reset() -> None:
    global _HISTORY
    _HISTORY = []  # expect: RPL102


from dataclasses import dataclass, field


@dataclass
class Poolish:
    # A lambda body runs per instance, like a method body.
    pool_id: int = field(default_factory=lambda: next(_POOL_IDS))  # expect: RPL102


record = lambda event: _HISTORY.append(event)  # expect: RPL102


def shadowed_then_declared() -> int:
    _POOL_IDS = itertools.count(5)

    def inner() -> int:
        global _POOL_IDS
        return next(_POOL_IDS)  # expect: RPL102

    return inner() + next(_POOL_IDS)
