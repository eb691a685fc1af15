"""repro-audit: whole-program seed-flow & effect analysis.

The per-file linter (:mod:`repro.lint`) certifies each file in
isolation; this package certifies the *composition*: it resolves the
full intra-repo import graph, builds a symbol table and call graph
over the source tree, infers impurity effects inter-procedurally, and
holds every trial/entry worker to the purity bar the result cache and
the trial ensemble assume.  The ``audit`` section of the committed
``ANALYSIS_MANIFEST.json`` is the CI-gated ledger of each worker's role
and effect surface.

Public surface::

    from repro.audit import run_audit
    report = run_audit(["src"])
    report.ok            # no unsanctioned cross-file findings
    report.findings      # RPL2xx + RPL900 findings, sorted

Command line: ``repro-audit`` (or ``python -m repro.audit``).
"""

from .callgraph import (
    CallGraph,
    CallSite,
    ClassHierarchy,
    build_call_graph,
    function_body_walk,
)
from .effects import Effect, EffectClosure, TracedEffect, direct_effects, effect_closure
from .project import ClassNode, FunctionNode, MODULE_BODY, ModuleRecord, Project
from .rules import (
    AUDIT_RULES,
    AuditContext,
    audit_rule_by_identifier,
    run_audit,
)
from .workers import Worker, find_workers

__all__ = [
    "AUDIT_RULES",
    "AuditContext",
    "CallGraph",
    "CallSite",
    "ClassHierarchy",
    "ClassNode",
    "Effect",
    "EffectClosure",
    "FunctionNode",
    "MODULE_BODY",
    "ModuleRecord",
    "Project",
    "TracedEffect",
    "Worker",
    "audit_rule_by_identifier",
    "build_call_graph",
    "direct_effects",
    "effect_closure",
    "find_workers",
    "function_body_walk",
    "run_audit",
]
