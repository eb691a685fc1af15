"""The vec tier: dtype/shape & hot-loop static analysis.

The third static-analysis tier.  :mod:`repro.lint` certifies each file's
determinism in isolation (RPL1xx); :mod:`repro.audit` certifies the
whole program's purity composition (RPL2xx); this package certifies the
*numeric kernel layer* (RPL3xx): dtypes that hold their encodes, no
silent narrowing at array boundaries, validated CSR structures, and —
via the inheritance-aware call closure of the engines' ``step``/
``communicate`` entry points — no per-node Python loops, in-loop
allocation, or per-step structure rebuilds hiding in hot code.  The
``vec`` section of the committed ``ANALYSIS_MANIFEST.json`` is the
CI-gated ledger of the hot surface and every sanctioned scalar loop.

Public surface::

    from repro.vec import run_vec
    report = run_vec(["src"])
    report.ok            # no unsanctioned RPL3xx findings
    report.findings      # RPL3xx + RPL900 findings, sorted

Command line: ``repro-check --skip lint,audit,flow`` runs this tier alone;
``repro-check --select RPL311`` one of its rules.
"""

from .facts import ArrayFact, DType, parse_dtype, promote
from .hot import HOT_ENTRY_METHODS, HOT_MODULE_RE, hot_closure, hot_roots
from .infer import (
    FunctionFacts,
    class_attribute_facts,
    infer_function,
    module_uses_numpy,
)
from .rules import (
    VEC_RULES,
    VecContext,
    build_vec_context,
    run_vec,
    vec_rule_by_identifier,
)

__all__ = [
    "ArrayFact",
    "DType",
    "FunctionFacts",
    "HOT_ENTRY_METHODS",
    "HOT_MODULE_RE",
    "VEC_RULES",
    "VecContext",
    "build_vec_context",
    "class_attribute_facts",
    "hot_closure",
    "hot_roots",
    "infer_function",
    "module_uses_numpy",
    "parse_dtype",
    "promote",
    "run_vec",
    "vec_rule_by_identifier",
]
