"""RPL105 unpicklable-worker: lambdas/closures handed to the trial engine.

``TrialEngine.run`` ships ``(fn, trial)`` pairs to worker processes by
pickling; pickle serialises functions *by reference* (module +
qualified name), so lambdas and functions nested inside other
functions either raise ``PicklingError`` at fan-out time or — worse,
with ``jobs=1`` inline execution — work in tests and die only when
someone first passes ``--jobs 4``.  Only the *worker slot* (the first
argument) must be picklable: the ``on_success`` callback runs in the
parent, so a lambda there is fine and is not flagged.  A bare name is a
nested function when a def of that name sits in one of the call site's
enclosing function scopes.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from ..core import Finding, ModuleInfo
from .base import Rule, looks_like

__all__ = ["ENGINE_METHODS", "UnpicklableWorkerRule", "engine_worker"]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: ``TrialEngine`` methods whose first argument is a worker callable.
#: RPL105 and the audit's worker search share this one set.
ENGINE_METHODS = frozenset({"run"})


def engine_worker(module: ModuleInfo, call: ast.Call) -> Optional[ast.AST]:
    """Worker slot of ``<TrialEngine>.<method>(...)`` for ``ENGINE_METHODS``.

    The slot is the first positional argument, else the ``fn`` keyword;
    None when ``call`` is no such dispatch or passes no worker.
    """
    func = call.func
    if not (
        isinstance(func, ast.Attribute)
        and func.attr in ENGINE_METHODS
        and looks_like(module, func.value, "TrialEngine", "engine")
    ):
        return None
    if call.args:
        return call.args[0]
    return next((kw.value for kw in call.keywords if kw.arg == "fn"), None)


def _is_nested_def(module: ModuleInfo, site: ast.AST, name: str) -> bool:
    """Does ``name`` at ``site`` resolve to a def inside a function?"""
    scope = module.index.scope_of(site)
    while scope is not None:
        if isinstance(scope.node, _DEFS) and any(
            isinstance(node, _DEFS) and node.name == name for node in scope.nodes
        ):
            return True
        scope = scope.parent
    return False


class UnpicklableWorkerRule(Rule):
    rule_id = "RPL105"
    name = "unpicklable-worker"
    summary = "lambda/nested function passed as a parallel worker callable"
    rationale = (
        "Worker callables cross process boundaries pickled by "
        "reference; lambdas and nested functions cannot be pickled, so "
        "the sweep dies the moment it runs with jobs>1. Define the "
        "worker at module level."
    )

    # ------------------------------------------------------------------
    def _worker_hazard(self, module: ModuleInfo, worker: ast.AST) -> Optional[str]:
        if isinstance(worker, ast.Lambda):
            return "a lambda"
        if isinstance(worker, ast.Name) and _is_nested_def(module, worker, worker.id):
            return f"nested function '{worker.id}'"
        if isinstance(worker, ast.Call):
            canonical = module.resolve(worker.func)
            if canonical and canonical.split(".")[-1] == "partial" and worker.args:
                return self._worker_hazard(module, worker.args[0])
        if any(isinstance(node, ast.Lambda) for node in ast.walk(worker)):
            return "a lambda"
        return None

    # ------------------------------------------------------------------
    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in module.index.of(ast.Call):
            worker = engine_worker(module, node)
            if worker is None:
                continue
            hazard = self._worker_hazard(module, worker)
            if hazard is not None:
                findings.append(
                    self.finding(
                        module,
                        worker,
                        f"worker slot of .{node.func.attr}() receives {hazard}; "
                        "workers are pickled by reference for "
                        "multiprocessing — define the trial function at "
                        "module level",
                    )
                )
        return findings
