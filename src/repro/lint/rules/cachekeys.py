"""RPL106 cache-key: id- or order-dependent values in cache key material.

``ResultCache`` keys are SHA-256 hashes over a canonical JSON encoding
of ``(experiment_id, config, seed, code_version)``; values JSON cannot
encode fall back to ``repr()``.  That fallback is a trap: a ``set``'s
repr depends on hash randomization (different across processes for
strings), and lambdas / ``object()`` / generator reprs embed memory
addresses.  Any of these reaching key material means the same logical
config hashes to a *different key every run* — the cache silently
never hits, or worse, collides only within one process and hides the
recompute bug.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from ..core import Finding, ModuleInfo
from .base import Rule, looks_like

__all__ = ["CACHE_METHODS", "CacheKeyRule", "key_hazard"]

#: ResultCache's key-consuming surface (RPL106 here, RPL4xx in repro.flow).
CACHE_METHODS = frozenset({"get", "put", "key", "entry_path", "discard"})


def key_hazard(module: ModuleInfo, node: ast.AST) -> Optional[str]:
    """Repr-instability hazard of one expression node, or None."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set (iteration-order-dependent repr)"
    if isinstance(node, ast.Lambda):
        return "lambda (memory-address repr)"
    if isinstance(node, ast.GeneratorExp):
        return "generator (memory-address repr)"
    if isinstance(node, ast.Call):
        canonical = module.resolve(node.func)
        if canonical in ("set", "frozenset"):
            return f"{canonical}() (iteration-order-dependent repr)"
        if canonical == "object":
            return "object() (memory-address repr)"
    return None


class CacheKeyRule(Rule):
    rule_id = "RPL106"
    name = "cache-key"
    summary = "id/order-dependent value reaches ResultCache key material"
    rationale = (
        "Cache keys hash a canonical encoding of the config; values "
        "that fall back to repr() (sets, lambdas, bare objects, "
        "generators) make the key differ across runs, so the cache "
        "never hits. Use sorted lists and plain data instead."
    )

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in module.index.of(ast.Call):
            func = node.func
            is_cache_call = False
            call_desc = ""
            canonical = module.resolve(func)
            if canonical and canonical.split(".")[-1] == "cache_key":
                is_cache_call = True
                call_desc = "cache_key()"
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in CACHE_METHODS
                and looks_like(module, func.value, "ResultCache", "cache")
            ):
                is_cache_call = True
                call_desc = f".{func.attr}()"
            if not is_cache_call:
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                for sub in ast.walk(argument):
                    reason = key_hazard(module, sub)
                    if reason is not None:
                        findings.append(
                            self.finding(
                                module,
                                sub,
                                f"{reason} in key material of {call_desc}; "
                                "its repr is unstable across runs, so the "
                                "cache key never matches — encode as a "
                                "sorted list / plain data",
                            )
                        )
        return findings
