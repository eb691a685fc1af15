"""RPL102 global-state: module-level mutable state mutated from functions.

This is the exact class of the PR 1 ``MiningPool`` bug: a module-level
``itertools.count()`` handed out pool ids, so the ids a network's pools
received depended on how many pools *any other* network in the process
had already created — block hashes (seeded from pool ids) diverged
between a fresh process and a process that had run an earlier trial,
breaking cross-process determinism.  The fix scoped the counter
per-network; this rule mechanises the review that found it.

Only *known-mutable* module-level bindings are tracked (list/dict/set
displays and comprehensions, ``list()``/``dict()``/``set()``,
``itertools.count()``, ``collections.Counter/defaultdict/deque/
OrderedDict``), and only *mutations from inside function, method or
lambda bodies* are flagged (a ``default_factory=lambda: next(_ids)`` is
the same bug): building a constant table at import time is fine,
and instance-scoped state (``self._counter = itertools.count()``, as in
``netsim/events.py``) never matches because the rule tracks bare module
names, not attributes.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from ..core import Finding, ModuleInfo, Scope
from .base import Rule, local_bindings, module_assignments

__all__ = ["GlobalStateRule", "module_mutables"]

_MUTABLE_CALLS = frozenset(
    {
        "itertools.count",
        "collections.Counter",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "list",
        "dict",
        "set",
    }
)

_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "popleft",
        "extendleft",
        "rotate",
        "subtract",
    }
)


#: Scopes whose code runs when called, not at import.
_FUNCTION_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def module_mutables(module: ModuleInfo) -> Dict[str, Tuple[int, str]]:
    """Module-level names bound to known-mutable values: name -> (line, kind).

    Computed once per module (do not mutate the result).
    """
    return module.memo("mutables", _module_mutables)


def _module_mutables(module: ModuleInfo) -> Dict[str, Tuple[int, str]]:
    mutables: Dict[str, Tuple[int, str]] = {}
    for targets, value, stmt in module_assignments(module.tree):
        kind = None
        if isinstance(value, (ast.List, ast.ListComp)):
            kind = "list"
        elif isinstance(value, (ast.Dict, ast.DictComp)):
            kind = "dict"
        elif isinstance(value, (ast.Set, ast.SetComp)):
            kind = "set"
        elif isinstance(value, ast.Call):
            canonical = module.resolve(value.func)
            if canonical in _MUTABLE_CALLS:
                kind = canonical
        if kind is None:
            continue
        for target in targets:
            mutables[target.id] = (stmt.lineno, kind)
    return mutables


class GlobalStateRule(Rule):
    rule_id = "RPL102"
    name = "global-state"
    summary = "process-global mutable state mutated from a function/method"
    rationale = (
        "A module-level counter/list/dict mutated from methods couples "
        "every instance in the process (the MiningPool pool-id bug): "
        "results depend on what else ran earlier in the same process. "
        "Scope the state per-instance or pass it explicitly."
    )

    def check(self, module: ModuleInfo) -> List[Finding]:
        mutables = module_mutables(module)
        if not mutables:
            return []
        bindings: Dict[Scope, Tuple[Set[str], Set[str]]] = {}

        def bound(scope: Scope) -> Tuple[Set[str], Set[str]]:
            if scope not in bindings:
                bindings[scope] = local_bindings(scope)
            return bindings[scope]

        findings: List[Finding] = []
        for scope in module.index.scopes:
            if not isinstance(scope.node, _FUNCTION_SCOPES):
                continue
            locals_, declared_global = bound(scope)

            def is_global(name: str) -> bool:
                """A tracked name whose load here reaches the module binding."""
                if name not in mutables or name in locals_:
                    return False
                if name in declared_global:
                    return True
                # An enclosing def or lambda that binds the name shadows
                # it; a class body does not enclose its methods.
                outer = scope.parent
                while outer is not None:
                    if isinstance(outer.node, _FUNCTION_SCOPES):
                        if name in bound(outer)[0]:
                            return False
                    outer = outer.parent
                return True

            for node in scope.nodes:
                name = None
                verb = None
                if isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Name)
                        and func.id == "next"
                        and node.args
                        and isinstance(node.args[0], ast.Name)
                        and is_global(node.args[0].id)
                    ):
                        name, verb = node.args[0].id, "advances"
                    elif (
                        isinstance(func, ast.Attribute)
                        and func.attr in _MUTATOR_METHODS
                        and isinstance(func.value, ast.Name)
                        and is_global(func.value.id)
                    ):
                        name, verb = func.value.id, f".{func.attr}() mutates"
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and is_global(target.value.id)
                        ):
                            name, verb = target.value.id, "item-assignment mutates"
                        elif (
                            isinstance(target, ast.Name)
                            and target.id in declared_global
                            and target.id in mutables
                        ):
                            name, verb = target.id, "rebinding (via global) replaces"
                if name is None:
                    continue
                line, kind = mutables[name]
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{verb} module-global '{name}' ({kind}, defined line "
                        f"{line}) from inside a function; process-global "
                        "mutable state makes results depend on process "
                        "history (the MiningPool pool-id bug) — scope it "
                        "per-instance or pass it explicitly",
                    )
                )
        return findings
