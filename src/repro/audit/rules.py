"""The RPL2xx cross-file rule family and the audit orchestrator.

Where RPL1xx rules certify one file at a time, these certify the
*whole program*:

- **RPL201 impure-worker** — a worker dispatched through
  ``TrialEngine``/``run_experiment`` transitively reaches an impure
  effect (global RNG, wall clock, filesystem/env/network I/O,
  unordered iteration) that no one sanctioned with a reason.
- **RPL202 seed-drop** — a function that accepts a ``seed``/``rng``
  parameter calls a seed-taking intra-repo callee without threading
  any seed-derived value into it, so the callee silently falls back to
  its default seed and the caller's seed stops governing part of the
  computation.
- **RPL203 reachable-state** — mutable module-level state is mutated
  somewhere in a worker's transitive call graph: the generalized
  ``MiningPool``/``EventQueue`` bug class, now caught across module
  boundaries.

Whether the cache's code fingerprint covers what the workers execute
is the flow tier's RPL403.

Findings reuse the lint engine's :class:`~repro.lint.core.Finding`
shape and suppression directives, so reporting, sorting, and
``# repro-lint: disable=RPL2xx <reason>`` comments work identically
across both tools.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..lint.core import Finding
from .callgraph import CallGraph, function_body_walk
from .effects import (
    Effect,
    EffectClosure,
    IMPURE_KINDS,
    STATE_KINDS,
    direct_effects,
    effect_closure,
)
from .project import MODULE_BODY, FunctionNode, ModuleRecord, Project
from .tier import ProjectContext, ProjectReport, ProjectRule, Tier, short_trace
from .workers import Worker

__all__ = [
    "AUDIT_RULES",
    "AuditContext",
    "TIER",
    "audit_rule_by_identifier",
    "build_audit_section",
    "run_audit",
]

_SEED_PARAM_RE = re.compile(r"^(seed|seeds|rng|root_seed|.*_seed|.*_rng)$")


@dataclass
class AuditContext(ProjectContext):
    """Everything a cross-file rule may inspect."""

    graph: CallGraph
    effects: Dict[str, List[Effect]]
    workers: List[Worker]
    closures: Dict[str, EffectClosure]


class ImpureWorkerRule(ProjectRule):
    rule_id = "RPL201"
    name = "impure-worker"
    summary = "worker's transitive call graph reaches an impure effect"
    rationale = (
        "Trial results are cached, retried, and compared across worker "
        "counts on the assumption that a worker is a pure function of "
        "(experiment_id, config, seed); any transitively reachable "
        "global-RNG, wall-clock, or I/O effect silently breaks that. "
        "Sanction a deliberate effect on its line with a reason."
    )

    kinds = IMPURE_KINDS

    def check(self, context: AuditContext) -> List[Finding]:
        findings: List[Finding] = []
        for worker in context.workers:
            closure = context.closures[worker.fq]
            record = context.record_of(worker.node)
            for traced in closure.effects:
                effect = traced.effect
                if effect.kind not in self.kinds or effect.sanctioned:
                    continue
                findings.append(
                    self.finding(
                        record,
                        worker.node.lineno,
                        0,
                        f"{worker.role} worker '{worker.fq}' transitively "
                        f"reaches {effect.kind} at {effect.module}:"
                        f"{effect.line} ({effect.detail}) via "
                        f"{short_trace(traced.trace, limit=5, tail=2)}",
                    )
                )
        return findings


class ReachableStateRule(ImpureWorkerRule):
    rule_id = "RPL203"
    name = "reachable-state"
    summary = "mutable module-level state mutated in a worker's call graph"
    rationale = (
        "A module-global counter/dict mutated anywhere in a worker's "
        "transitive call graph couples trials through process history — "
        "the MiningPool pool-id bug, generalized across modules. Scope "
        "the state per-instance or pass it explicitly."
    )

    kinds = STATE_KINDS


class SeedFlowRule(ProjectRule):
    rule_id = "RPL202"
    name = "seed-drop"
    summary = "seed-taking callee invoked without threading the caller's seed"
    rationale = (
        "When a seeded function calls a callee that takes its own "
        "seed/rng but is not handed one derived from the caller's, the "
        "callee runs on its default seed: the caller's seed silently "
        "stops governing part of the computation, and sweeps over seeds "
        "stop sweeping it."
    )

    def _seed_params(self, params: Sequence[str]) -> List[str]:
        return [p for p in params if _SEED_PARAM_RE.match(p)]

    def _seed_carrying(self, record: ModuleRecord, fn: FunctionNode) -> Set[str]:
        """Caller-local names holding seed-derived values (fixpoint)."""
        carrying: Set[str] = set(self._seed_params(fn.params))
        if not carrying:
            return carrying
        assigns: List[Tuple[Set[str], ast.AST]] = []
        for node in function_body_walk(record, fn):
            if isinstance(node, ast.Assign):
                targets = {
                    t.id for t in node.targets if isinstance(t, ast.Name)
                }
                if targets:
                    assigns.append((targets, node.value))
        changed = True
        while changed:
            changed = False
            for targets, value in assigns:
                if targets <= carrying:
                    continue
                refs = {
                    n.id for n in ast.walk(value) if isinstance(n, ast.Name)
                }
                if refs & carrying:
                    carrying |= targets
                    changed = True
        return carrying

    @staticmethod
    def _callee_params(target) -> Optional[Tuple[str, Sequence[str]]]:
        kind, symbol = target
        if kind == "function":
            return symbol.fq, symbol.params
        if kind == "class":
            return symbol.fq, symbol.init_params
        return None

    def check(self, context: AuditContext) -> List[Finding]:
        findings: List[Finding] = []
        for record in context.project.modules.values():
            for fn in record.functions.values():
                if fn.qualname == MODULE_BODY:
                    continue
                carrying = self._seed_carrying(record, fn)
                if not carrying:
                    continue
                for node in function_body_walk(record, fn):
                    if not isinstance(node, ast.Call):
                        continue
                    canonical = record.info.resolve(node.func)
                    if canonical is None:
                        continue
                    target = context.project.resolve_local(record, canonical)
                    if target is None:
                        continue
                    located = self._callee_params(target)
                    if located is None:
                        continue
                    callee_fq, callee_params = located
                    if callee_fq == fn.fq:
                        continue  # recursion threads by construction
                    callee_seed = self._seed_params(callee_params)
                    if not callee_seed:
                        continue
                    arguments = list(node.args) + [
                        kw.value for kw in node.keywords
                    ]
                    name_refs: Set[str] = set()
                    attr_refs: Set[str] = set()
                    for argument in arguments:
                        for sub in ast.walk(argument):
                            if isinstance(sub, ast.Name):
                                name_refs.add(sub.id)
                            elif isinstance(sub, ast.Attribute):
                                attr_refs.add(sub.attr)
                    threaded = bool(name_refs & carrying) or any(
                        _SEED_PARAM_RE.match(attr) for attr in attr_refs
                    )
                    if threaded:
                        continue
                    findings.append(
                        self.finding(
                            record,
                            node.lineno,
                            node.col_offset,
                            f"'{fn.fq}' takes "
                            f"'{'/'.join(self._seed_params(fn.params))}' but "
                            f"calls '{callee_fq}' (seed parameter "
                            f"'{'/'.join(callee_seed)}') without threading a "
                            "seed-derived value — the callee runs on its "
                            "default seed",
                        )
                    )
        return findings


AUDIT_RULES: List[ProjectRule] = sorted(
    [
        ImpureWorkerRule(),
        SeedFlowRule(),
        ReachableStateRule(),
    ],
    key=lambda rule: rule.rule_id,
)


def build_context(project: Project) -> AuditContext:
    """Call graph, effects, workers, and per-worker closures."""
    graph = project.call_graph
    effects = direct_effects(project)
    closures = {
        worker.fq: effect_closure(graph, effects, worker.fq)
        for worker in project.workers
    }
    return AuditContext(
        project=project,
        graph=graph,
        effects=effects,
        workers=project.workers,
        closures=closures,
    )


def build_audit_section(report: ProjectReport) -> Dict[str, Any]:
    """The audit's manifest section: each worker's role and effect surface.

    Effects are keyed line-free (kind, site, sanctioned) so pure code
    motion does not churn the ledger; sanctioned effects raise no
    findings but stay listed, so a reviewer sees which impurities were
    declared intentional and where.
    """
    context = report.context
    workers: Dict[str, Any] = {}
    for worker in context.workers:
        effects = {
            (traced.effect.kind, traced.effect.site, traced.effect.sanctioned)
            for traced in context.closures[worker.fq].effects
        }
        workers[worker.fq] = {
            "role": worker.role,
            "artifact": worker.artifact,
            "dispatched_from": worker.dispatch_module,
            "effects": [
                {"kind": kind, "site": site, "sanctioned": sanctioned}
                for kind, site, sanctioned in sorted(effects)
            ],
        }
    artifacts = sorted(
        {w.artifact for w in context.workers if w.artifact is not None}
    )
    return {"artifacts": artifacts, "workers": workers}


TIER = Tier(
    rules=AUDIT_RULES,
    kind="audit rule",
    build_context=build_context,
    section="audit",
    build_section=build_audit_section,
    sanction_hint=(
        "sanction a deliberate effect on its line with `# repro-lint: "
        "disable=<rule-or-effect-kind> <reason>`; sanctioned effects "
        "raise no findings but stay in the audit section of the analysis "
        "manifest"
    ),
)

#: The library entry points: ``run_audit(["src"])``, a rule by ID or name.
run_audit = TIER.run
audit_rule_by_identifier = TIER.lookup
