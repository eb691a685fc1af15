"""Good: counters and accumulators scoped per-instance or per-call.

The instance-scoped ``itertools.count`` mirrors the historical event
queue's tokens — the sanctioned shape the global-state rule must stay
silent on.
"""

import itertools

#: Module-level *constants* are fine; only mutation from functions fires.
DEFAULT_SHARES = {"alpha": 0.6, "beta": 0.4}
KNOWN_KINDS = ["pool", "wallet"]


class EventQueueish:
    def __init__(self) -> None:
        self._counter = itertools.count()
        self._items = []

    def push(self, item: object) -> int:
        token = next(self._counter)
        self._items.append(item)
        return token


def accumulate(events) -> dict:
    totals = {}
    for event in events:
        totals[event] = totals.get(event, 0) + 1
    return totals


def shadowed(_REGISTRY=None) -> None:
    _REGISTRY = {}
    _REGISTRY["local"] = True  # local shadow, not the module global


#: Lambdas that only read module state, or mutate their own argument.
share_of = lambda name: DEFAULT_SHARES.get(name, 0.0)
add_kind = lambda KNOWN_KINDS: KNOWN_KINDS.append("miner")


class Catalog:
    # A class body runs once, at import, like the module body.
    KNOWN_KINDS.append("relay")


#: A module counter that an enclosing function shadows: the nested
#: function advances the enclosing function's own counter.
_SEQUENCE = itertools.count()


def numbered(items) -> list:
    _SEQUENCE = itertools.count(5)

    def number(item):
        return (next(_SEQUENCE), item)

    return [number(item) for item in items]
