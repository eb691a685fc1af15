"""``repro-audit`` console entry point.

Usage::

    repro-audit                        # audit src, report findings
    repro-audit --check-manifest       # CI gate: findings OR manifest drift fail
    repro-audit --write-manifest       # rewrite the audit section of ANALYSIS_MANIFEST.json
    repro-audit --format json          # machine-readable report
    repro-audit --select RPL203        # one rule family member
    repro-audit --list-rules           # RPL2xx catalogue with rationale

Options and exit codes are those of every tier (:mod:`repro.audit.tier`):
0 clean, 1 findings (or manifest drift under ``--check-manifest``),
2 usage error.
"""

from __future__ import annotations

import sys

from .rules import AUDIT_RULES, audit_rule_by_identifier, build_audit_section, run_audit
from .tier import DEFAULT_PATHS as _DEFAULT_PATHS, Tier  # noqa: F401  (default root, pinned by tests)

__all__ = ["TIER", "main"]

TIER = Tier(
    prog="repro-audit",
    description=(
        "Whole-program seed-flow & effect audit over the repro source "
        "tree (see the README section 'Static analysis')."
    ),
    rules=AUDIT_RULES,
    lookup=audit_rule_by_identifier,
    run=run_audit,
    section="audit",
    build_section=build_audit_section,
    sanction_hint=(
        "sanction a deliberate effect on its line with `# repro-lint: "
        "disable=<rule-or-effect-kind> <reason>`; sanctioned effects "
        "raise no findings but stay in the audit section of the analysis "
        "manifest"
    ),
)

main = TIER.main


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
