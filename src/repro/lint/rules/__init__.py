"""Rule registry: one instance of every rule, ordered by ID.

Adding a rule = write a module under ``repro/lint/rules/``, instantiate
it here, give it a fixture pair under ``tests/lint/fixtures/`` (one
``*_bad.py`` that fires it, one ``*_good.py`` that stays silent), and
document it in README's "Determinism rules" table.  A rule reads nodes
and scopes from ``module.index`` (``index.of(ast.Call)``,
``index.scopes``), not by walking ``module.tree``: the module is walked
once, and what a scope is and owns is decided there.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from .base import Rule
from .cachekeys import CacheKeyRule
from .clock import WallClockRule
from .ordering import SetOrderRule
from .pickling import UnpicklableWorkerRule
from .rng import GlobalRngRule
from .state import GlobalStateRule

__all__ = [
    "RULES",
    "Rule",
    "find_rule",
    "rule_by_identifier",
    "select_rules",
]

RULES: List[Rule] = sorted(
    [
        GlobalRngRule(),
        GlobalStateRule(),
        WallClockRule(),
        SetOrderRule(),
        UnpicklableWorkerRule(),
        CacheKeyRule(),
    ],
    key=lambda rule: rule.rule_id,
)


def find_rule(rules: Sequence[Any], identifier: str, kind: str = "rule") -> Any:
    """A rule of ``rules`` by ID or name; ``kind`` words the KeyError."""
    needle = identifier.strip().lower()
    for rule in rules:
        if needle in (rule.rule_id.lower(), rule.name.lower()):
            return rule
    known = ", ".join(f"{r.rule_id}/{r.name}" for r in rules)
    raise KeyError(f"unknown {kind} {identifier!r}; known rules: {known}")


def select_rules(
    rules: Sequence[Any],
    select: Optional[Iterable[str]],
    ignore: Optional[Iterable[str]],
    kind: str = "rule",
) -> List[Any]:
    """``rules`` narrowed to ``select`` (when given), minus ``ignore``."""
    chosen = list(rules)
    if select is not None:
        wanted = {find_rule(rules, name, kind).rule_id for name in select}
        chosen = [rule for rule in chosen if rule.rule_id in wanted]
    if ignore is not None:
        dropped = {find_rule(rules, name, kind).rule_id for name in ignore}
        chosen = [rule for rule in chosen if rule.rule_id not in dropped]
    return chosen


def rule_by_identifier(identifier: str) -> Rule:
    """Look up a rule by ID (``RPL104``) or name (``set-order``)."""
    return find_rule(RULES, identifier)
