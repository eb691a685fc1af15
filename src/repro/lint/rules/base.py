"""Rule protocol and shared AST scope/shape helpers.

Every rule is a stateless object with identity metadata (``rule_id``,
``name``, ``summary``, ``rationale``) and a ``check(module)`` method
returning findings.  Rules read nodes and scopes from ``module.index``
(:class:`~repro.lint.core.NodeIndex`) rather than walking the tree.
The helpers here resolve which names are *local* to a function scope
(so instance/local state is never confused with module globals), list
module-level assignments, recognise engine/cache receivers and name the
RNG draw calls.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..core import Finding, ModuleInfo, Scope

__all__ = [
    "RNG_DRAW_METHODS",
    "Rule",
    "local_bindings",
    "looks_like",
    "module_assignments",
]

#: Method names that draw from a generator (stdlib ``random.Random`` and
#: ``numpy.random.Generator`` vocabularies).  Used to decide whether a
#: loop body consumes randomness.
RNG_DRAW_METHODS = frozenset(
    {
        # stdlib random.Random
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "uniform",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "triangular",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        # numpy.random.Generator
        "normal",
        "standard_normal",
        "integers",
        "exponential",
        "poisson",
        "binomial",
        "geometric",
        "gamma",
        "beta",
        "chisquare",
        "multinomial",
        "permutation",
        "permuted",
    }
)


class Rule:
    """Base class: identity metadata plus the ``check`` hook."""

    rule_id: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, module: ModuleInfo) -> List[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            rule_name=self.name,
            message=message,
        )


def _target_names(target: ast.AST) -> Set[str]:
    # Only Store-context names bind: in ``registry[key] = v`` the name
    # ``registry`` is a Load (the mutation rule depends on seeing that).
    return {
        node.id
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }


def looks_like(
    module: ModuleInfo, receiver: ast.AST, class_name: str, word: str
) -> bool:
    """Is ``receiver`` a ``class_name(...)`` call or a name mentioning ``word``?

    The receiver heuristic of the engine and cache rules: both
    ``TrialEngine(jobs=2)`` and ``self._engine`` look like an engine.
    """
    if isinstance(receiver, ast.Call):
        canonical = module.resolve(receiver.func)
        return bool(canonical) and canonical.split(".")[-1] == class_name
    parts = module.imports.dotted_parts(receiver)
    return bool(parts) and word in parts[-1].lower()


def module_assignments(
    tree: ast.Module,
) -> Iterator[Tuple[List[ast.Name], ast.AST, ast.stmt]]:
    """Each top-level ``name = value`` / ``name: T = value``.

    Yields the statement's plain-name targets, its value and itself.
    """
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            yield [t for t in stmt.targets if isinstance(t, ast.Name)], stmt.value, stmt
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                yield [stmt.target], stmt.value, stmt


def local_bindings(scope: Scope) -> Tuple[Set[str], Set[str]]:
    """Names a def or lambda scope binds, and the names it declares global.

    Names declared ``global`` are not local even when assigned, since
    those assignments hit module state — exactly what rules like
    global-state need to see through.
    """
    args = scope.node.args
    names = {
        arg.arg
        for arg in args.posonlyargs + args.args + args.kwonlyargs
        + [args.vararg, args.kwarg]
        if arg is not None
    }
    declared_global: Set[str] = set()
    for node in scope.nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_target_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names.update(_target_names(node.target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names.update(_target_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names.update(_target_names(item.optional_vars))
        elif isinstance(node, ast.NamedExpr):
            names.update(_target_names(node.target))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
    return names - declared_global, declared_global
