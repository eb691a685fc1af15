"""The RPL4xx rule family: cache soundness & config flow.

The fourth static-analysis tier.  Where RPL1xx certifies per-file
determinism, RPL2xx whole-program purity, and RPL3xx the numeric
kernels, these rules certify that the content-keyed result cache is
*sound*: nothing outside a cached artifact's key can influence the
artifact.

- **RPL401 key-dropped-param** — a cache-boundary parameter that the
  inter-procedural influence fixpoint proves can reach a result (a
  worker's return value, an RNG stream label, or engine construction)
  but that never enters the key material closure.  This is the literal
  PR 6/8 bug shape: ``engine`` forwarded to the experiment but absent
  from ``cache_key()`` config would have served stale grid results for
  graph-engine runs.
- **RPL402 digest-dropped-field** — a declared field of a
  digest-bearing spec class that never enters the digest path, so two
  specs differing only in that knob share one cache entry.
- **RPL403 unfingerprinted-module** — a module in *any* worker's call
  closure absent from ``FINGERPRINT_MODULES``: the static
  generalization of RPL204's entry-worker prefix check to trial
  workers, reported per missing module with a call trace.
- **RPL404 signature-gate-drift** — an
  ``inspect.signature(fn).parameters`` membership gate that silently
  defaults instead of raising when a registered artifact lacks the
  gated parameter: the override is dropped for exactly those
  artifacts, and nothing tells the operator.
- **RPL405 noncanonical-key-material** — the inter-procedural RPL106:
  a repr-unstable value (set / lambda / generator / ``object()``)
  flowing into key or digest material through an assignment or a
  helper's return value, where the per-file rule cannot see it.

Findings reuse the lint engine's :class:`~repro.lint.core.Finding`
shape and suppression directives: a reviewed exception is sanctioned on
its line with ``# repro-lint: disable=RPL4xx <reason>`` and then
appears in the ``flow`` section of the committed
``ANALYSIS_MANIFEST.json`` ledger instead of failing the run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..audit.callgraph import CallGraph, function_body_walk
from ..audit.project import MODULE_BODY, ModuleRecord, Project
from ..audit.rules import StaleFingerprintRule, fingerprint_covers
from ..audit.tier import (
    ProjectContext,
    ProjectReport,
    ProjectRule,
    Tier,
    sanctioned_ledger,
    short_trace,
)
from ..audit.workers import Worker
from ..lint.core import Finding
from .boundaries import Boundary, find_boundaries
from .dataflow import RETURN, FunctionFlow
from .digests import DigestClass, find_digest_classes
from .influence import InfluenceSummary, build_flows, build_influence

__all__ = [
    "FLOW_RULES",
    "FLOW_RULE_IDS",
    "FlowContext",
    "TIER",
    "build_flow_context",
    "build_flow_section",
    "flow_rule_by_identifier",
    "run_flow",
]


@dataclass
class FlowContext(ProjectContext):
    """Everything an RPL4xx rule may inspect."""

    graph: CallGraph
    flows: Dict[str, FunctionFlow]
    summaries: Dict[str, InfluenceSummary]
    boundaries: Dict[str, Boundary]
    digest_classes: List[DigestClass]
    workers: List[Worker]
    #: ``(record, line, declared names)`` of FINGERPRINT_MODULES, if any.
    fingerprint: Optional[Tuple[ModuleRecord, int, Set[str]]]


def _kinds_label(kinds: Set[str]) -> str:
    labels = {
        "return": "the returned result",
        "rng": "an RNG stream/seed derivation",
        "engine": "engine construction",
    }
    return " and ".join(labels[k] for k in sorted(kinds))


class KeyDroppedParamRule(ProjectRule):
    rule_id = "RPL401"
    name = "key-dropped-param"
    summary = "result-influencing parameter missing from cache key material"
    rationale = (
        "A cached artifact must be insensitive to everything outside "
        "its key. A boundary parameter that can reach the result (its "
        "return flow, an RNG stream, or engine construction) but never "
        "reaches cache_key() config means two different runs share one "
        "entry — the stale-result bug class PRs 6/8/9 each patched by "
        "hand. Fold the parameter into the key, or sanction it on its "
        "signature line with the reason it cannot change the result."
    )

    def check(self, context: FlowContext) -> List[Finding]:
        findings: List[Finding] = []
        for fq in sorted(context.boundaries):
            boundary = context.boundaries[fq]
            for param in boundary.unkeyed():
                kinds = boundary.influencing[param]
                line = boundary.flow.param_lines.get(
                    param, boundary.fn.lineno
                )
                findings.append(
                    self.finding(
                        boundary.record,
                        line,
                        0,
                        f"parameter '{param}' of cache boundary '{fq}' "
                        f"can influence {_kinds_label(kinds)} but never "
                        "reaches the cache key material — entries cached "
                        "under one value are served for every other; add "
                        f"'{param}' to the key config or sanction it "
                        "with a reason",
                    )
                )
        return findings


class DigestDroppedFieldRule(ProjectRule):
    rule_id = "RPL402"
    name = "digest-dropped-field"
    summary = "spec field missing from the canonical-JSON digest path"
    rationale = (
        "Sweep cache keys are the spec digest; a declared field that "
        "never enters digest()'s serialization closure means two specs "
        "differing only in that knob collide on one cache entry. "
        "Enumerate fields dynamically (dataclasses.fields) so new "
        "knobs join the digest automatically."
    )

    def check(self, context: FlowContext) -> List[Finding]:
        findings: List[Finding] = []
        for digest_cls in context.digest_classes:
            closure = " -> ".join(
                fn.qualname for fn in digest_cls.closure
            )
            for missing in digest_cls.missing():
                findings.append(
                    self.finding(
                        digest_cls.record,
                        digest_cls.fields[missing],
                        0,
                        f"field '{missing}' of '{digest_cls.cls.fq}' "
                        f"never enters the digest path ({closure}): two "
                        f"specs differing only in '{missing}' share a "
                        "digest and collide on one cache entry",
                    )
                )
        return findings


def _module_closure(
    graph: CallGraph, root: str
) -> Tuple[Set[str], Dict[str, str]]:
    """Modules reachable from ``root`` plus a BFS parent map for traces."""
    modules: Set[str] = set()
    parents: Dict[str, str] = {}
    queue = [root]
    seen = {root}
    while queue:
        current = queue.pop(0)
        node = graph.nodes.get(current)
        if node is not None:
            modules.add(node.module)
        for site in sorted(
            graph.callees(current), key=lambda s: (s.callee, s.line)
        ):
            if site.callee in seen:
                continue
            seen.add(site.callee)
            parents[site.callee] = current
            queue.append(site.callee)
    return modules, parents


def _trace_to_module(
    graph: CallGraph, parents: Dict[str, str], root: str, module: str
) -> Tuple[str, ...]:
    target: Optional[str] = None
    for fq in sorted(parents) + [root]:
        node = graph.nodes.get(fq)
        if node is not None and node.module == module:
            target = fq
            break
    if target is None:
        return (root,)
    chain = [target]
    while chain[-1] != root and chain[-1] in parents:
        chain.append(parents[chain[-1]])
    return tuple(reversed(chain))


class UnfingerprintedModuleRule(ProjectRule):
    rule_id = "RPL403"
    name = "unfingerprinted-module"
    summary = "module in a worker's call closure absent from FINGERPRINT_MODULES"
    rationale = (
        "Cache keys embed a fingerprint hashed over FINGERPRINT_MODULES; "
        "a module any worker (entry or trial) can execute but that the "
        "declaration misses can change without changing any key, so old "
        "entries keep serving results the current code would no longer "
        "produce. RPL204 checks the dynamic entry closure; this is the "
        "static per-module generalization over every dispatch surface."
    )

    def check(self, context: FlowContext) -> List[Finding]:
        if context.fingerprint is None or not context.workers:
            return []  # no declaration: RPL204 owns that diagnosis
        record, lineno, declared = context.fingerprint

        #: missing module -> (worker fq, trace) exemplar, first worker wins.
        exemplars: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        for worker in sorted(context.workers, key=lambda w: w.fq):
            modules, parents = _module_closure(context.graph, worker.fq)
            for module in sorted(modules):
                if fingerprint_covers(declared, module) or module in exemplars:
                    continue
                trace = _trace_to_module(
                    context.graph, parents, worker.fq, module
                )
                exemplars[module] = (worker.fq, trace)
        findings: List[Finding] = []
        for module in sorted(exemplars):
            worker_fq, trace = exemplars[module]
            findings.append(
                self.finding(
                    record,
                    lineno,
                    0,
                    f"module '{module}' is reachable from worker "
                    f"'{worker_fq}' (via {short_trace(trace)}) but "
                    "absent from FINGERPRINT_MODULES — edits to it leave "
                    "stale cache entries being served",
                )
            )
        return findings


def _signature_gate(node: ast.If, record: ModuleRecord):
    """``(param, op)`` for an ``"x" [not] in inspect.signature(...)`` gate."""
    test = node.test
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.In, ast.NotIn))
        and isinstance(test.left, ast.Constant)
        and isinstance(test.left.value, str)
    ):
        return None
    comparator = test.comparators[0]
    if not (
        isinstance(comparator, ast.Attribute)
        and comparator.attr == "parameters"
        and isinstance(comparator.value, ast.Call)
    ):
        return None
    canonical = record.info.resolve(comparator.value.func)
    if canonical != "inspect.signature":
        return None
    return test.left.value, test.ops[0]


def _contains_raise(statements: Sequence[ast.stmt]) -> bool:
    return any(
        isinstance(node, ast.Raise)
        for stmt in statements
        for node in ast.walk(stmt)
    )


class SignatureGateDriftRule(ProjectRule):
    rule_id = "RPL404"
    name = "signature-gate-drift"
    summary = "inspect.signature parameter gate silently defaults"
    rationale = (
        "The `if \"engine\" not in inspect.signature(fn).parameters` "
        "pattern is sound only when the missing-parameter branch "
        "raises: a gate that silently skips the forward drops the "
        "override for exactly the registered artifacts that lack the "
        "parameter, and the cache then serves their default-config "
        "results under the override's invocation."
    )

    def check(self, context: FlowContext) -> List[Finding]:
        entries = [w for w in context.workers if w.role == "entry"]
        findings: List[Finding] = []
        for name in sorted(context.project.modules):
            record = context.project.modules[name]
            for fn in record.functions.values():
                if fn.qualname == MODULE_BODY:
                    continue
                for node in function_body_walk(record, fn):
                    if not isinstance(node, ast.If):
                        continue
                    gate = _signature_gate(node, record)
                    if gate is None:
                        continue
                    param, op = gate
                    if isinstance(op, ast.NotIn):
                        compliant = _contains_raise(node.body)
                    else:
                        compliant = _contains_raise(node.orelse)
                    if compliant:
                        continue
                    lacking = sorted(
                        w.artifact
                        for w in entries
                        if w.artifact is not None
                        and param not in w.node.params
                    )
                    if entries and not lacking:
                        continue  # every registered artifact takes it
                    detail = (
                        f" (registered artifact(s) without it: "
                        f"{', '.join(lacking)})"
                        if lacking
                        else ""
                    )
                    findings.append(
                        self.finding(
                            record,
                            node.lineno,
                            node.col_offset,
                            f"signature gate on '{param}' in '{fn.fq}' "
                            "silently defaults when the dispatched "
                            f"callable lacks the parameter{detail}; "
                            "raise in the missing branch so a dropped "
                            "override cannot serve mislabeled cached "
                            "results",
                        )
                    )
        return findings


class NoncanonicalKeyMaterialRule(ProjectRule):
    rule_id = "RPL405"
    name = "noncanonical-key-material"
    summary = "repr-unstable value flows into key or digest material"
    rationale = (
        "Canonical-JSON key encoding falls back to repr() for values "
        "JSON cannot encode; sets, lambdas, generators, and bare "
        "objects have run-dependent reprs, so the same logical config "
        "hashes differently every run and the cache never hits. RPL106 "
        "sees the hazard only when it sits literally in the call's "
        "arguments; this rule follows it through assignments and "
        "helper returns."
    )

    def _boundary_findings(self, context: FlowContext) -> List[Finding]:
        findings: List[Finding] = []
        for fq in sorted(context.boundaries):
            boundary = context.boundaries[fq]
            for targets, _sources, derivation in boundary.derivations:
                if not targets & boundary.key_closure:
                    continue
                for hazard in derivation.hazards:
                    findings.append(
                        self.finding(
                            boundary.record,
                            derivation.line,
                            derivation.col,
                            f"{hazard} flows into cache key material of "
                            f"'{fq}' through "
                            f"'{'/'.join(sorted(targets))}'; its repr is "
                            "unstable across runs, so the key never "
                            "matches — encode as sorted/plain data",
                        )
                    )
                for call in derivation.calls:
                    helper = context.summaries.get(call.callee)
                    if helper is None or helper.hazard_return is None:
                        continue
                    findings.append(
                        self.finding(
                            boundary.record,
                            derivation.line,
                            derivation.col,
                            f"helper '{call.callee}' returns "
                            f"{helper.hazard_return}, which flows into "
                            f"cache key material of '{fq}' through "
                            f"'{'/'.join(sorted(targets))}' — encode as "
                            "sorted/plain data before it reaches the key",
                        )
                    )
            # Hazard-returning helpers called literally in key arguments.
            for cache_call in boundary.flow.cache_calls:
                for sub in ast.walk(cache_call.node):
                    if not isinstance(sub, ast.Call) or sub is cache_call.node:
                        continue
                    canonical = boundary.record.info.resolve(sub.func)
                    if canonical is None:
                        continue
                    target = context.project.resolve_local(
                        boundary.record, canonical
                    )
                    if target is None or target[0] != "function":
                        continue
                    helper = context.summaries.get(target[1].fq)
                    if helper is None or helper.hazard_return is None:
                        continue
                    findings.append(
                        self.finding(
                            boundary.record,
                            sub.lineno,
                            sub.col_offset,
                            f"helper '{target[1].fq}' returns "
                            f"{helper.hazard_return} directly into key "
                            f"material of {cache_call.desc} in '{fq}' — "
                            "encode as sorted/plain data",
                        )
                    )
        return findings

    def _digest_findings(self, context: FlowContext) -> List[Finding]:
        findings: List[Finding] = []
        for digest_cls in context.digest_classes:
            for fn in digest_cls.closure:
                flow = context.flows.get(fn.fq)
                if flow is None:
                    continue
                for derivation in flow.derivations:
                    feeds_return = RETURN in derivation.targets or any(
                        RETURN in other.targets
                        and derivation.targets & other.sources
                        for other in flow.derivations
                    )
                    if not feeds_return:
                        continue
                    for hazard in derivation.hazards:
                        findings.append(
                            self.finding(
                                digest_cls.record,
                                derivation.line,
                                derivation.col,
                                f"{hazard} flows into digest material of "
                                f"'{digest_cls.cls.fq}' via '{fn.fq}'; "
                                "the digest differs every run — encode "
                                "as sorted/plain data",
                            )
                        )
        return findings

    def check(self, context: FlowContext) -> List[Finding]:
        return self._boundary_findings(context) + self._digest_findings(
            context
        )


FLOW_RULES: List[ProjectRule] = sorted(
    [
        KeyDroppedParamRule(),
        DigestDroppedFieldRule(),
        UnfingerprintedModuleRule(),
        SignatureGateDriftRule(),
        NoncanonicalKeyMaterialRule(),
    ],
    key=lambda rule: rule.rule_id,
)

#: The manifest section's sanction ledger covers the whole family.
FLOW_RULE_IDS = frozenset(rule.rule_id for rule in FLOW_RULES)


def build_flow_context(project: Project) -> FlowContext:
    """Call graph, flows, influence fixpoint, boundaries, digest classes."""
    graph = project.call_graph
    flows = build_flows(project)
    summaries = build_influence(project, flows)
    return FlowContext(
        project=project,
        graph=graph,
        flows=flows,
        summaries=summaries,
        boundaries=find_boundaries(flows, summaries),
        digest_classes=find_digest_classes(project),
        workers=project.workers,
        fingerprint=StaleFingerprintRule._fingerprint_declaration(project),
    )


def _sanctioned_params(report: ProjectReport, fq: str) -> List[str]:
    """Boundary params whose RPL401 findings are line-sanctioned."""
    boundary = report.context.boundaries[fq]
    lines = {
        line: param for param, line in boundary.flow.param_lines.items()
    }
    params = set()
    for finding in report.suppressed:
        if finding.rule_id != "RPL401":
            continue
        if finding.path != boundary.record.info.path:
            continue
        param = lines.get(finding.line)
        if param is not None and param in boundary.influencing:
            params.add(param)
    return sorted(params)


def build_flow_section(report: ProjectReport) -> Dict[str, Any]:
    """The flow manifest section: the cache surface and its sanctions.

    Every cache boundary with its influencing parameters (and their
    kinds), the parameters its key covers and those sanctioned on their
    signature line; every digest-bearing spec class with its field
    coverage; and the line-free sanction ledger for the RPL4xx family.
    A new result-influencing knob, or a change to what a key covers,
    must land in the same commit as the section update.
    """
    boundaries: Dict[str, Any] = {}
    for fq in sorted(report.context.boundaries):
        boundary = report.context.boundaries[fq]
        boundaries[fq] = {
            "influencing": {
                param: sorted(kinds)
                for param, kinds in sorted(boundary.influencing.items())
            },
            "key_params": sorted(boundary.key_params),
            "sanctioned_params": _sanctioned_params(report, fq),
        }
    digests: Dict[str, Any] = {}
    for digest_cls in report.context.digest_classes:
        digests[digest_cls.cls.fq] = {
            "complete_by_construction": digest_cls.dynamic,
            "fields": sorted(digest_cls.fields),
        }
    return {
        "cache_boundaries": boundaries,
        "digest_classes": digests,
        "sanctioned": sanctioned_ledger(report, FLOW_RULE_IDS),
    }


TIER = Tier(
    prog="repro-flow",
    description=(
        "Cache-soundness & config-flow static analysis over the repro "
        "caching layer (see the README section 'Static analysis')."
    ),
    rules=FLOW_RULES,
    kind="flow rule",
    build_context=build_flow_context,
    section="flow",
    build_section=build_flow_section,
    sanction_hint=(
        "sanction a reviewed exception on its line with `# repro-lint: "
        "disable=<rule-id> <reason>`; sanctioned entries raise no findings "
        "but stay in the flow section of the analysis manifest"
    ),
)

#: The library entry points: ``run_flow(["src"])``, a rule by ID or name.
run_flow = TIER.run
flow_rule_by_identifier = TIER.lookup
