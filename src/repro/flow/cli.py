"""``repro-flow`` console entry point.

Usage::

    repro-flow                         # analyze src, report findings
    repro-flow --check-manifest        # CI gate: findings OR manifest drift fail
    repro-flow --write-manifest        # rewrite the flow section of ANALYSIS_MANIFEST.json
    repro-flow --format json           # machine-readable report
    repro-flow --select RPL401         # one rule family member
    repro-flow --list-rules            # RPL4xx catalogue with rationale

Options and exit codes are those of every tier (:mod:`repro.audit.tier`):
0 clean, 1 findings (or manifest drift under ``--check-manifest``),
2 usage error.
"""

from __future__ import annotations

import sys

from ..audit.tier import Tier
from .rules import FLOW_RULES, build_flow_section, flow_rule_by_identifier, run_flow

__all__ = ["TIER", "main"]

TIER = Tier(
    prog="repro-flow",
    description=(
        "Cache-soundness & config-flow static analysis over the repro "
        "caching layer (see the README section 'Static analysis')."
    ),
    rules=FLOW_RULES,
    lookup=flow_rule_by_identifier,
    run=run_flow,
    section="flow",
    build_section=build_flow_section,
    sanction_hint=(
        "sanction a reviewed exception on its line with `# repro-lint: "
        "disable=<rule-id> <reason>`; sanctioned entries raise no findings "
        "but stay in the flow section of the analysis manifest"
    ),
)

main = TIER.main


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
