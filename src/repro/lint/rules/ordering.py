"""RPL104 set-order: unordered iteration feeding RNG or ordered output.

Set iteration order is unspecified — for ``str`` elements it varies
*across processes* with hash randomization (``PYTHONHASHSEED``).  A
loop over a set is therefore fine when its body is order-neutral
(membership counting, max/sum) but silently nondeterministic the
moment the body draws randomness (the draw sequence reorders) or
builds ordered output (lists, dicts keyed in iteration order, yielded
streams).  The fix is one word: iterate ``sorted(...)``.

List/dict comprehensions over a set are flagged unconditionally —
their entire purpose is to build ordered output from the unordered
source.  Set comprehensions and order-neutral reducers are not
matched.  Every scope that runs code is checked: the module, each def,
each lambda and each class body.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from ..core import Finding, ModuleInfo, Scope
from .base import RNG_DRAW_METHODS, Rule

__all__ = ["SetOrderRule"]

_APPEND_METHODS = frozenset({"append", "appendleft", "extend", "insert", "setdefault"})


class SetOrderRule(Rule):
    rule_id = "RPL104"
    name = "set-order"
    summary = "iterating a set where order reaches RNG draws or output"
    rationale = (
        "Set iteration order varies with hash randomization (notably "
        "for strings, across processes); when the loop body draws "
        "randomness or builds ordered output the result silently "
        "depends on it. Iterate sorted(...) instead."
    )

    # ------------------------------------------------------------------
    def _set_names(self, module: ModuleInfo, scope: Scope) -> Set[str]:
        names: Set[str] = set()
        for node in scope.nodes:
            if isinstance(node, ast.Assign) and self._is_set_expr(module, node.value, ()):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _is_set_expr(
        self, module: ModuleInfo, expr: ast.AST, set_names
    ) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            return module.resolve(expr.func) in ("set", "frozenset")
        if isinstance(expr, ast.Name):
            return expr.id in set_names
        return False

    @staticmethod
    def _body_hazard(body) -> Optional[str]:
        """What the loop body does with iteration order, if anything."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in RNG_DRAW_METHODS:
                        return "draws randomness"
                    if node.func.attr in _APPEND_METHODS:
                        return "appends to ordered results"
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    if any(isinstance(t, ast.Subscript) for t in targets):
                        return "writes keyed results in iteration order"
                elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return "yields output"
        return None

    # ------------------------------------------------------------------
    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for scope in module.index.scopes:
            set_names = self._set_names(module, scope)
            for node in scope.nodes:
                if isinstance(node, (ast.For, ast.AsyncFor)) and self._is_set_expr(
                    module, node.iter, set_names
                ):
                    hazard = self._body_hazard(node.body + node.orelse)
                    if hazard is not None:
                        findings.append(
                            self.finding(
                                module,
                                node,
                                "loop iterates a set and its body "
                                f"{hazard}; set order varies with hash "
                                "randomization — iterate sorted(...) instead",
                            )
                        )
                elif isinstance(node, (ast.ListComp, ast.DictComp)):
                    if any(
                        self._is_set_expr(module, gen.iter, set_names)
                        for gen in node.generators
                    ):
                        kind = "list" if isinstance(node, ast.ListComp) else "dict"
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"{kind} comprehension over a set builds "
                                "ordered output from an unordered source; "
                                "iterate sorted(...) instead",
                            )
                        )
        return findings
