"""The flow tier: cache-soundness & config-flow static analysis.

The fourth static-analysis tier.  :mod:`repro.lint` certifies each
file's determinism in isolation (RPL1xx); :mod:`repro.audit` certifies
the whole program's purity composition (RPL2xx); :mod:`repro.vec`
certifies the numeric kernel layer (RPL3xx); this package certifies the
*content-keyed cache* (RPL4xx): every parameter that can influence a
cached result is part of its key, every declared spec field enters the
digest, every module a worker can execute is fingerprinted, signature
gates raise instead of silently defaulting, and nothing repr-unstable
flows into key material through a helper.  The ``flow`` section of the
committed ``ANALYSIS_MANIFEST.json`` is the CI-gated ledger of the cache
surface and every sanctioned exception.

Public surface::

    from repro.flow import run_flow
    report = run_flow(["src"])
    report.ok            # no unsanctioned RPL4xx findings
    report.findings      # RPL4xx + RPL900 findings, sorted

Command line: ``repro-check --skip lint,audit,vec`` runs this tier alone;
``repro-check --select RPL403`` one of its rules.
"""

from .boundaries import Boundary, find_boundaries
from .dataflow import (
    RETURN,
    BoundCall,
    CacheCall,
    Derivation,
    FunctionFlow,
    backward_closure,
    collect_flow,
    effective_derivations,
)
from .digests import DigestClass, find_digest_classes
from .influence import (
    INFLUENCE_KINDS,
    InfluenceSummary,
    build_flows,
    build_influence,
)
from .rules import (
    FLOW_RULES,
    FlowContext,
    build_flow_context,
    flow_rule_by_identifier,
    run_flow,
)

__all__ = [
    "Boundary",
    "BoundCall",
    "CacheCall",
    "Derivation",
    "DigestClass",
    "FLOW_RULES",
    "FlowContext",
    "FunctionFlow",
    "INFLUENCE_KINDS",
    "InfluenceSummary",
    "RETURN",
    "backward_closure",
    "build_flow_context",
    "build_flows",
    "build_influence",
    "collect_flow",
    "effective_derivations",
    "find_boundaries",
    "find_digest_classes",
    "flow_rule_by_identifier",
    "run_flow",
]
