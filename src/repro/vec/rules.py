"""The RPL3xx rule family: numeric dtype/shape flow and hot-loop debt.

Pass 1 (RPL301-304) runs over every function in every numpy-importing
module and certifies the *numeric* layer: encodes that fit their dtype,
no silent narrowing, scatter ops on matching dtypes, validated CSR
structures.  Pass 2 (RPL311-313) runs only over the *hot* set — the
inheritance-aware call closure of the engines' ``step``/``run``/
``communicate`` entry points — and certifies the *performance* layer:
no Python-level loops over node/edge-scale data, no allocation inside
hot loops, no per-step structure rebuilds.

Findings reuse the lint engine's :class:`~repro.lint.core.Finding`
shape and suppression directives: a reviewed scalar loop is sanctioned
on its line with ``# repro-lint: disable=RPL311 <reason>`` and then
appears in the ``vec`` section of the committed
``ANALYSIS_MANIFEST.json`` ledger instead of failing the run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..lint.core import Finding
from ..audit.callgraph import CallGraph, function_body_walk
from ..audit.project import MODULE_BODY, FunctionNode, Project
from ..audit.tier import (
    ProjectContext,
    ProjectReport,
    ProjectRule,
    Tier,
    sanctioned_ledger,
    short_trace,
)
from .hot import hot_closure, hot_roots
from .infer import (
    FunctionFacts,
    _identifier_segments,
    class_attribute_facts,
    infer_function,
    module_uses_numpy,
)

__all__ = [
    "TIER",
    "VEC_RULES",
    "VecContext",
    "build_vec_context",
    "build_vec_section",
    "run_vec",
    "vec_rule_by_identifier",
]

#: Identifier words that mark a collection as node/edge-scale.
_SCALE_WORDS = frozenset(
    {
        "node",
        "nodes",
        "cell",
        "cells",
        "edge",
        "edges",
        "peer",
        "peers",
        "neighbor",
        "neighbors",
        "neighbour",
        "neighbours",
        "indices",
        "indptr",
        "offer",
        "offers",
        "partner",
        "partners",
        "holder",
        "holders",
        "height",
        "heights",
    }
)

_INDPTR_RE = re.compile(r"(^|_)indptr$")
_INDICES_RE = re.compile(r"(^|_)indices$")
_VALIDATOR_CALLS = frozenset({"numpy.diff", "numpy.all", "numpy.any"})


def _scale_name(identifier: str) -> bool:
    return any(word in _SCALE_WORDS for word in identifier.lower().split("_"))


@dataclass
class VecContext(ProjectContext):
    """Everything an RPL3xx rule may inspect."""

    graph: CallGraph
    #: fq -> interpreted facts, for every analyzed function.
    facts: Dict[str, FunctionFacts]
    #: hot fq -> call trace from an engine root.
    hot: Dict[str, Tuple[str, ...]]
    roots: List[FunctionNode]

    def hot_facts(self) -> List[FunctionFacts]:
        return [
            self.facts[fq] for fq in sorted(self.hot) if fq in self.facts
        ]


class EncodeOverflowRule(ProjectRule):
    rule_id = "RPL301"
    name = "overflow-encode"
    summary = "integer encode (a * K + b) carried in a sub-64-bit dtype"
    rationale = (
        "The engines pack (height, source) pairs into single integers "
        "as height * K + source; at 10^6 nodes the code exceeds int32 "
        "after ~2147 mined blocks, and overflow silently inverts the "
        "scatter-max tie-break. Encodes must be built in int64."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.facts.values():
            record = context.record_of(facts.fn)
            for event in facts.encodes:
                bound = 2 ** (event.dtype.bits - 1) - 1
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"integer encode '{event.expr}' in "
                        f"'{facts.fn.fq}' promotes to {event.dtype.name}: "
                        f"the packed code overflows past {bound} "
                        "(node-count x height headroom); build the encode "
                        "in int64",
                    )
                )
        return findings


class SilentDowncastRule(ProjectRule):
    rule_id = "RPL302"
    name = "silent-downcast"
    summary = "implicit narrowing at a setitem or out= boundary"
    rationale = (
        "ndarray[...] = wider_values and out=narrower casts truncate "
        "without a warning under NumPy's unsafe setitem casting; a "
        "height that wraps in int16 corrupts fork bookkeeping silently. "
        "Narrow explicitly with .astype(...) where the loss is intended."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.facts.values():
            record = context.record_of(facts.fn)
            for event in facts.downcasts:
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"storing {event.src.name} values into "
                        f"{event.dst.name} '{event.target}' at an "
                        f"{event.boundary} boundary in '{facts.fn.fq}' "
                        "silently truncates; widen the target or cast "
                        "explicitly with .astype",
                    )
                )
        return findings


class ScatterDtypeRule(ProjectRule):
    rule_id = "RPL303"
    name = "scatter-dtype-mismatch"
    summary = "np.<ufunc>.at scatter between mismatched dtypes"
    rationale = (
        "np.maximum.at(target, idx, values) casts values to the target "
        "dtype element-wise; scattering int64 offer codes into an int32 "
        "buffer reintroduces the overflow RPL301 guards against, one "
        "element at a time. Scatter buffers must match the value dtype."
    )

    @staticmethod
    def _mismatch(target, value) -> bool:
        if target is None or value is None:
            return False
        if target.family != value.family:
            return True
        return value.bits > target.bits

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.facts.values():
            record = context.record_of(facts.fn)
            for event in facts.scatters:
                if not self._mismatch(event.target_dtype, event.value_dtype):
                    continue
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"{event.op}(...) in '{facts.fn.fq}' scatters "
                        f"{event.value_dtype.name} values into "
                        f"{event.target_dtype.name} '{event.target}'; "
                        "the element-wise cast truncates — allocate the "
                        "scatter target in the value dtype",
                    )
                )
        return findings


class UnvalidatedCsrRule(ProjectRule):
    rule_id = "RPL304"
    name = "unvalidated-csr"
    summary = "CSR arrays built without validation or a validating constructor"
    rationale = (
        "indptr/indices pairs encode the whole topology; a "
        "non-monotonic indptr or out-of-bounds index turns the scatter "
        "kernels into silent memory-order corruption. Construction "
        "sites must validate (monotonicity, bounds) or hand both arrays "
        "to a constructor that does."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.facts.values():
            record = context.record_of(facts.fn)
            fn = facts.fn
            if fn.qualname == MODULE_BODY:
                continue
            constructions: List[Tuple[str, int, int]] = []
            handoff = False
            validated = False
            for node in function_body_walk(record, fn):
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, (ast.Call, ast.BinOp)
                ):
                    for target in node.targets:
                        name = _terminal_name(target)
                        if name is not None and _INDPTR_RE.search(name):
                            constructions.append(
                                (name, node.lineno, node.col_offset)
                            )
                elif isinstance(node, ast.Call):
                    seen_indptr = False
                    seen_indices = False
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        for ident in _identifier_segments(arg):
                            if _INDPTR_RE.search(ident):
                                seen_indptr = True
                            if _INDICES_RE.search(ident):
                                seen_indices = True
                    for kw in node.keywords:
                        if kw.arg and _INDPTR_RE.search(kw.arg):
                            seen_indptr = True
                        if kw.arg and _INDICES_RE.search(kw.arg):
                            seen_indices = True
                    if seen_indptr and seen_indices:
                        handoff = True
                    canonical = record.info.resolve(node.func)
                    if canonical in _VALIDATOR_CALLS and any(
                        _INDPTR_RE.search(ident)
                        for arg in node.args
                        for ident in _identifier_segments(arg)
                    ):
                        validated = True
                elif isinstance(node, (ast.Assert, ast.If)):
                    test = node.test
                    if any(
                        _INDPTR_RE.search(ident) for ident in _identifier_segments(test)
                    ):
                        validated = True
            if not constructions or handoff or validated:
                continue
            for name, line, col in constructions:
                findings.append(
                    self.finding(
                        record,
                        line,
                        col,
                        f"CSR array '{name}' is constructed in "
                        f"'{fn.fq}' without monotonicity/bounds "
                        "validation and never handed (together with its "
                        "indices) to a validating constructor",
                    )
                )
        return findings


class HotPythonLoopRule(ProjectRule):
    rule_id = "RPL311"
    name = "hot-python-loop"
    summary = "Python for/comprehension over node/edge-scale data in hot code"
    rationale = (
        "A per-node Python loop inside the step/communicate closure "
        "turns an O(steps) vectorized kernel back into O(steps x nodes) "
        "interpreter time — the exact regression the vec engines "
        "exist to remove. Sanction a reviewed, bounded loop on its "
        "line with a reason; it then lives in the vec section of "
        "ANALYSIS_MANIFEST.json."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.hot_facts():
            record = context.record_of(facts.fn)
            trace = context.hot[facts.fn.fq]
            for event in facts.loops:
                if event.items_like:
                    continue
                scale = (
                    event.fact is not None
                    or any(_scale_name(name) for name in event.range_names)
                    or (
                        not event.range_names
                        and any(_scale_name(name) for name in event.names)
                    )
                )
                if not scale:
                    continue
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"{event.kind} loop over '{event.iterable}' in hot "
                        f"function '{facts.fn.fq}' (hot via "
                        f"{short_trace(trace)}) iterates node/edge-scale "
                        "data in Python; vectorize or sanction with a "
                        "reason",
                    )
                )
        return findings


class HotLoopAllocRule(ProjectRule):
    rule_id = "RPL312"
    name = "hot-loop-alloc"
    summary = "array construction inside a loop in hot code"
    rationale = (
        "Allocating inside a hot loop multiplies allocator traffic by "
        "the iteration count per step; buffers used every step belong "
        "outside the loop (or in __init__), reused in place."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.hot_facts():
            record = context.record_of(facts.fn)
            trace = context.hot[facts.fn.fq]
            for event in facts.allocs:
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"array allocation '{event.what}' inside a loop in "
                        f"hot function '{facts.fn.fq}' (hot via "
                        f"{short_trace(trace)}); hoist the buffer out of "
                        "the loop and reuse it",
                    )
                )
        return findings


class HotRebuildRule(ProjectRule):
    rule_id = "RPL313"
    name = "hot-rebuild"
    summary = "CSR/neighbour-structure rebuild reachable from the step loop"
    rationale = (
        "Topology structures (CSR arrays, neighbour matrices) are "
        "invariants of a run; rebuilding one inside the step closure "
        "repeats an O(edges) construction every step. Build once at "
        "__init__ and reuse."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.hot_facts():
            record = context.record_of(facts.fn)
            trace = context.hot[facts.fn.fq]
            for event in facts.builds:
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"'{event.callee}' rebuilds a topology structure "
                        f"inside hot function '{facts.fn.fq}' (hot via "
                        f"{short_trace(trace)}); structures are run "
                        "invariants — build once outside the step loop",
                    )
                )
        return findings


def _terminal_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


VEC_RULES: List[ProjectRule] = sorted(
    [
        EncodeOverflowRule(),
        SilentDowncastRule(),
        ScatterDtypeRule(),
        UnvalidatedCsrRule(),
        HotPythonLoopRule(),
        HotLoopAllocRule(),
        HotRebuildRule(),
    ],
    key=lambda rule: rule.rule_id,
)

#: The manifest section's ledger covers the hot-path (pass 2) family.
LOOP_RULE_IDS = frozenset({"RPL311", "RPL312", "RPL313"})


def build_vec_context(project: Project) -> VecContext:
    """Inheritance-aware graph, hot closure, and per-function facts.

    Facts are inferred for every function in a numpy-importing module
    (pass 1's scope) plus every hot function regardless of module
    (pass 2 must see loops in engines that do their array work through
    helpers).  Module bodies are not interpreted: import-time code is
    one-shot.
    """
    graph = project.call_graph
    attr_facts = class_attribute_facts(project, graph.hierarchy)
    roots = hot_roots(project)
    hot = hot_closure(graph, roots)
    facts: Dict[str, FunctionFacts] = {}
    for record in project.modules.values():
        uses_numpy = module_uses_numpy(record)
        for fn in record.functions.values():
            if fn.qualname == MODULE_BODY:
                continue
            if not uses_numpy and fn.fq not in hot:
                continue
            attrs = None
            if "." in fn.qualname:
                class_fq = f"{record.name}.{fn.qualname.split('.', 1)[0]}"
                attrs = attr_facts.get(class_fq)
            facts[fn.fq] = infer_function(record, fn, attr_facts=attrs)
    return VecContext(
        project=project,
        graph=graph,
        facts=facts,
        hot=hot,
        roots=roots,
    )


def build_vec_section(report: ProjectReport) -> Dict[str, Any]:
    """The vec manifest section: the hot surface and its sanctioned loops.

    A new hot loop, a sanction added or removed, or a change to what is
    hot must land in the same commit as the section update.
    """
    return {
        "hot_roots": sorted(fn.fq for fn in report.context.roots),
        "hot_functions": sorted(report.context.hot),
        "sanctioned_loops": sanctioned_ledger(report, LOOP_RULE_IDS),
    }


TIER = Tier(
    rules=VEC_RULES,
    kind="vec rule",
    build_context=build_vec_context,
    section="vec",
    build_section=build_vec_section,
    sanction_hint=(
        "sanction a reviewed scalar loop on its line with `# repro-lint: "
        "disable=<rule-id> <reason>`; sanctioned loops raise no findings "
        "but stay in the vec section of the analysis manifest"
    ),
)

#: The library entry points: ``run_vec(["src"])``, a rule by ID or name.
run_vec = TIER.run
vec_rule_by_identifier = TIER.lookup
