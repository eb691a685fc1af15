"""Per-function dataflow facts: derivations, call bindings, cache calls.

Every RPL4xx rule reasons over the same flow-insensitive local model of
one function:

- a **derivation** ``targets <- sources`` for every binding statement
  (assignments, augmented assignments, subscript/attribute stores,
  loop targets, ``with ... as`` bindings, in-place mutator calls such
  as ``d.update(v)``), plus one pseudo-derivation per ``return``
  statement targeting :data:`RETURN`;
- a **bound call** for every call that resolves to an intra-repo
  function or class, mapping each argument expression's names onto the
  callee's parameters — the hook the inter-procedural fixpoint
  (:mod:`repro.flow.influence`) uses to propagate influence precisely
  instead of assuming every argument matters;
- the function's **cache calls** (``cache_key(...)`` or a
  ``.get/.put/.key/.entry_path/.discard`` method on a cache-shaped
  receiver, the same heuristic the per-file RPL106 rule uses) with
  their key-material argument names.

One asymmetry is deliberate: any value produced *by* a cache call
contributes no sources (``payload = cache.get(...)`` derives from
nothing).  A cache hit's content is governed by the key itself, so the
hit path must not count as parameter influence — otherwise every
boundary function's ``cache`` handle would flag itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..audit.project import (
    MODULE_BODY,
    FunctionNode,
    ModuleRecord,
    Project,
    signature_args,
)
from ..lint.rules.cachekeys import CACHE_METHODS, key_hazard

__all__ = [
    "BoundCall",
    "CacheCall",
    "Derivation",
    "FunctionFlow",
    "RETURN",
    "backward_closure",
    "collect_flow",
    "effective_derivations",
    "hazard_of",
    "resolve_call",
]

#: Pseudo-target naming a function's returned value in derivations.
RETURN = "<return>"

#: In-place mutators: ``base.append(v)`` derives ``base`` from ``v``.
_MUTATOR_METHODS = frozenset(
    {"append", "extend", "add", "update", "insert", "setdefault", "appendleft"}
)


def hazard_of(record: ModuleRecord, node: ast.AST) -> Optional[str]:
    """Repr-instability hazard of one expression node (RPL106's set)."""
    return key_hazard(record.info, node)


@dataclass(frozen=True)
class BoundCall:
    """One call resolved to an intra-repo symbol, arguments bound."""

    callee: str  # fully qualified function/class id
    kind: str  # ``"function"`` or ``"class"``
    #: (callee parameter or None when unmappable, names in the argument)
    bindings: Tuple[Tuple[Optional[str], FrozenSet[str]], ...]
    all_names: FrozenSet[str]
    line: int
    col: int


@dataclass(frozen=True)
class CacheCall:
    """One cache-key-consuming call and its key-material names."""

    desc: str  # ``cache_key()`` or ``.get()`` etc.
    key_names: FrozenSet[str]  # names in the key-material arguments
    receiver: Optional[str]  # terminal receiver name (``cache``/``self``)
    node: ast.Call
    line: int
    col: int


@dataclass(frozen=True)
class Derivation:
    """``targets`` may carry information from ``sources`` (+ calls)."""

    targets: FrozenSet[str]
    sources: FrozenSet[str]
    calls: Tuple[BoundCall, ...]
    hazards: Tuple[str, ...]
    line: int
    col: int


@dataclass
class FunctionFlow:
    """The complete local dataflow account of one function."""

    fn: FunctionNode
    record: ModuleRecord
    derivations: List[Derivation] = field(default_factory=list)
    #: every resolved call anywhere in the body (sink propagation).
    calls: List[BoundCall] = field(default_factory=list)
    cache_calls: List[CacheCall] = field(default_factory=list)
    param_lines: Dict[str, int] = field(default_factory=dict)


def _class_of(fn: FunctionNode) -> Optional[str]:
    if "." in fn.qualname and fn.qualname != MODULE_BODY:
        return fn.qualname.split(".", 1)[0]
    return None


def resolve_call(
    project: Project,
    record: ModuleRecord,
    own_class: Optional[str],
    node: ast.Call,
):
    """Resolve one call to a project symbol (``self.m()`` included)."""
    func = node.func
    if (
        own_class is not None
        and isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("self", "cls")
    ):
        sibling = record.functions.get(f"{own_class}.{func.attr}")
        if sibling is not None:
            return ("function", sibling)
    canonical = record.info.resolve(func)
    if canonical is None:
        return None
    return project.resolve_local(record, canonical)


def _names_in(node: ast.AST) -> Set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _bind_call(
    project: Project,
    record: ModuleRecord,
    own_class: Optional[str],
    node: ast.Call,
) -> Optional[BoundCall]:
    target = resolve_call(project, record, own_class, node)
    if target is None or target[0] not in ("function", "class"):
        return None
    kind, symbol = target
    params = list(symbol.params if kind == "function" else symbol.init_params)
    if (
        kind == "function"
        and params
        and params[0] in ("self", "cls")
        and isinstance(node.func, ast.Attribute)
    ):
        params = params[1:]
    bindings: List[Tuple[Optional[str], FrozenSet[str]]] = []
    all_names: Set[str] = set()
    for position, arg in enumerate(node.args):
        names = frozenset(_names_in(arg))
        all_names |= names
        if isinstance(arg, ast.Starred):
            bindings.append((None, names))
            continue
        param = params[position] if position < len(params) else None
        bindings.append((param, names))
    for keyword in node.keywords:
        names = frozenset(_names_in(keyword.value))
        all_names |= names
        param = keyword.arg if keyword.arg in params else None
        bindings.append((param, names))
    return BoundCall(
        callee=symbol.fq,
        kind=kind,
        bindings=tuple(bindings),
        all_names=frozenset(all_names),
        line=node.lineno,
        col=node.col_offset,
    )


def _cache_call(
    project: Project,
    record: ModuleRecord,
    own_class: Optional[str],
    node: ast.Call,
) -> Optional[CacheCall]:
    func = node.func
    canonical = record.info.resolve(func)
    desc: Optional[str] = None
    receiver: Optional[str] = None
    if canonical and canonical.split(".")[-1] == "cache_key":
        desc = "cache_key()"
    elif isinstance(func, ast.Attribute) and func.attr in CACHE_METHODS:
        base = func.value
        if isinstance(base, ast.Call):
            base_canonical = record.info.resolve(base.func)
            if base_canonical and base_canonical.split(".")[-1] == "ResultCache":
                desc = f".{func.attr}()"
        parts = record.info.imports.dotted_parts(base)
        if desc is None and parts:
            if "cache" in parts[-1].lower():
                desc = f".{func.attr}()"
                receiver = parts[-1]
            elif (
                parts[0] in ("self", "cls")
                and own_class is not None
                and "cache" in own_class.lower()
            ):
                # Methods of a *Cache class calling their own key surface.
                desc = f".{func.attr}()"
                receiver = parts[0]
    if desc is None:
        return None
    # ``.put(experiment_id, config, seed, payload)`` stores the payload
    # *under* the key; only the first three arguments are key material.
    args = list(node.args)
    keywords = list(node.keywords)
    if desc == ".put()":
        args = args[:3]
        keywords = [kw for kw in keywords if kw.arg != "payload"]
    key_names: Set[str] = set()
    for arg in args + [kw.value for kw in keywords]:
        key_names |= _names_in(arg)
    return CacheCall(
        desc=desc,
        key_names=frozenset(key_names),
        receiver=receiver,
        node=node,
        line=node.lineno,
        col=node.col_offset,
    )


def _target_names(target: ast.expr) -> Set[str]:
    """Names bound (or mutated through) by one assignment target."""
    names: Set[str] = set()
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names |= _target_names(element)
    elif isinstance(target, ast.Starred):
        names |= _target_names(target.value)
    elif isinstance(target, (ast.Subscript, ast.Attribute)):
        # ``x[k] = v`` / ``x.f = v`` mutate ``x``: derive the base.
        base = target.value
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if isinstance(base, ast.Name):
            names.add(base.id)
    return names


class _ValueScan:
    """Names/hazards/bound-calls of one value expression.

    Cache-call subtrees are skipped entirely (the hit-path exclusion);
    resolved intra-repo calls contribute a :class:`BoundCall` instead
    of raw names, so the fixpoint can filter by the callee's actual
    influence; everything else contributes its names wholesale.
    """

    def __init__(
        self,
        project: Project,
        record: ModuleRecord,
        own_class: Optional[str],
    ) -> None:
        self.project = project
        self.record = record
        self.own_class = own_class
        self.sources: Set[str] = set()
        self.calls: List[BoundCall] = []
        self.hazards: List[str] = []

    def visit(self, node: ast.AST, collect_names: bool = True) -> None:
        if isinstance(node, ast.Call):
            if (
                _cache_call(self.project, self.record, self.own_class, node)
                is not None
            ):
                return  # hit-path: governed by the key, not the arguments
            hazard = hazard_of(self.record, node)
            if hazard is not None:
                self.hazards.append(hazard)
            bound = _bind_call(self.project, self.record, self.own_class, node)
            if bound is not None:
                self.calls.append(bound)
                for child in ast.iter_child_nodes(node):
                    self.visit(child, collect_names=False)
                return
        else:
            hazard = hazard_of(self.record, node)
            if hazard is not None:
                self.hazards.append(hazard)
        if isinstance(node, ast.Name) and collect_names:
            self.sources.add(node.id)
        for child in ast.iter_child_nodes(node):
            self.visit(child, collect_names)


def _derive(
    project: Project,
    record: ModuleRecord,
    own_class: Optional[str],
    targets: Set[str],
    value: ast.AST,
    line: int,
    col: int,
    extra_sources: Set[str] = frozenset(),
) -> Optional[Derivation]:
    if not targets:
        return None
    scan = _ValueScan(project, record, own_class)
    scan.visit(value)
    return Derivation(
        targets=frozenset(targets),
        sources=frozenset(scan.sources | set(extra_sources)),
        calls=tuple(scan.calls),
        hazards=tuple(scan.hazards),
        line=line,
        col=col,
    )


def collect_flow(
    project: Project, record: ModuleRecord, fn: FunctionNode
) -> FunctionFlow:
    """Build the complete local dataflow account of one function."""
    from ..audit.callgraph import function_body_walk

    own_class = _class_of(fn)
    flow = FunctionFlow(fn=fn, record=record)
    if fn.node is not None:
        flow.param_lines = {a.arg: a.lineno for a in signature_args(fn.node)}

    def add(
        targets: Set[str],
        value: ast.AST,
        node: ast.AST,
        extra: Set[str] = frozenset(),
    ) -> None:
        derivation = _derive(
            project,
            record,
            own_class,
            targets,
            value,
            getattr(node, "lineno", fn.lineno),
            getattr(node, "col_offset", 0),
            extra_sources=extra,
        )
        if derivation is not None:
            flow.derivations.append(derivation)

    for node in function_body_walk(record, fn):
        if isinstance(node, ast.Assign):
            targets: Set[str] = set()
            for target in node.targets:
                targets |= _target_names(target)
            add(targets, node.value, node)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            add(_target_names(node.target), node.value, node)
        elif isinstance(node, ast.AugAssign):
            targets = _target_names(node.target)
            add(targets, node.value, node, extra=targets)
        elif isinstance(node, ast.NamedExpr):
            add(_target_names(node.target), node.value, node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            add(_target_names(node.target), node.iter, node)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    add(
                        _target_names(item.optional_vars),
                        item.context_expr,
                        node,
                    )
        elif isinstance(node, ast.Return) and node.value is not None:
            add({RETURN}, node.value, node)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and isinstance(func.value, ast.Name)
            ):
                synthetic = (
                    ast.Tuple(elts=list(call.args), ctx=ast.Load())
                    if call.args
                    else None
                )
                if synthetic is not None:
                    ast.copy_location(synthetic, call)
                    ast.fix_missing_locations(synthetic)
                    add({func.value.id}, synthetic, node)
        if isinstance(node, ast.Call):
            cache = _cache_call(project, record, own_class, node)
            if cache is not None:
                flow.cache_calls.append(cache)
            else:
                bound = _bind_call(project, record, own_class, node)
                if bound is not None:
                    flow.calls.append(bound)
    return flow


def effective_derivations(flow, influential):
    """Derivations with call results expanded through callee summaries.

    ``influential(callee_fq, kind)`` returns the callee's influencing
    parameter set, or ``None`` when unknown — unknown callees are
    treated conservatively (every argument may matter).
    """
    out: List[Tuple[FrozenSet[str], Set[str], Derivation]] = []
    for derivation in flow.derivations:
        sources = set(derivation.sources)
        for call in derivation.calls:
            known = influential(call.callee, call.kind)
            if known is None:
                sources |= set(call.all_names)
            else:
                for param, names in call.bindings:
                    if param is None or param in known:
                        sources |= names
        out.append((derivation.targets, sources, derivation))
    return out


def backward_closure(derivations, seeds: Set[str]) -> Set[str]:
    """Names that may flow into any of ``seeds`` (fixpoint)."""
    closure = set(seeds)
    changed = True
    while changed:
        changed = False
        for targets, sources, _ in derivations:
            if targets & closure and not sources <= closure:
                closure |= sources
                changed = True
    return closure
