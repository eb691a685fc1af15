"""``repro-vec`` console entry point.

Usage::

    repro-vec                          # analyze src, report findings
    repro-vec --check-manifest         # CI gate: findings OR manifest drift fail
    repro-vec --write-manifest         # rewrite the vec section of ANALYSIS_MANIFEST.json
    repro-vec --format json            # machine-readable report
    repro-vec --select RPL311          # one rule family member
    repro-vec --list-rules             # RPL3xx catalogue with rationale

Options and exit codes are those of every tier (:mod:`repro.audit.tier`):
0 clean, 1 findings (or manifest drift under ``--check-manifest``),
2 usage error.
"""

from __future__ import annotations

import sys

from ..audit.tier import Tier
from .rules import VEC_RULES, build_vec_section, run_vec, vec_rule_by_identifier

__all__ = ["TIER", "main"]

TIER = Tier(
    prog="repro-vec",
    description=(
        "Numeric dtype/shape & hot-loop static analysis over the repro "
        "kernel layer (see the README section 'Static analysis')."
    ),
    rules=VEC_RULES,
    lookup=vec_rule_by_identifier,
    run=run_vec,
    section="vec",
    build_section=build_vec_section,
    sanction_hint=(
        "sanction a reviewed scalar loop on its line with `# repro-lint: "
        "disable=<rule-id> <reason>`; sanctioned loops raise no findings "
        "but stay in the vec section of the analysis manifest"
    ),
)

main = TIER.main


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
