"""``repro-check``: the four static-analysis tiers as one gate.

Runs, in tier order, ``repro-lint`` (RPL1xx, per-file determinism),
``repro-audit`` (RPL2xx, whole-program purity), ``repro-vec`` (RPL3xx,
numeric/hot-path), and ``repro-flow`` (RPL4xx, cache soundness) with
their production defaults, merging their exit codes: the umbrella
exits with the *worst* tool status (0 clean, 1 findings or manifest
drift, 2 usage error), so one CI job can gate on the whole RPL
namespace.

``--check-manifests`` forwards ``--check-manifest`` to every
manifest-bearing tier (audit, vec, flow), making this the single
command CI runs.  ``--format json`` emits one merged machine-readable
report — each tool's own JSON report nested under its name plus the
per-tool exit codes — for failure triage without re-running anything.

The run is one analysis pass: lint parses each file once, and audit,
vec and flow check one project built from those modules, sharing its
call graph, its worker list and lint's per-module findings.

Usage::

    repro-check                      # all four tiers, text reports
    repro-check --check-manifests    # CI gate incl. manifest drift
    repro-check --format json        # one merged JSON report
    repro-check --skip lint,vec      # run a subset
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from .audit.cli import TIER as AUDIT
from .audit.cli import main as audit_main
from .audit.project import Project
from .audit.tier import DEFAULT_PATHS
from .flow.cli import TIER as FLOW
from .flow.cli import main as flow_main
from .lint.cli import UsageError, existing_paths, finish
from .lint.cli import main as lint_main
from .lint.core import FileReport, RunReport, lint_paths
from .lint.reporters import json_document
from .vec.cli import TIER as VEC
from .vec.cli import main as vec_main

__all__ = ["TOOLS", "main", "run_tools"]

#: (name, entry point, base argv, takes --check-manifest), tier order.
TOOLS: Tuple[Tuple[str, Callable[[List[str]], int], List[str], bool], ...] = (
    ("lint", lint_main, ["src", "benchmarks", "tests", "examples"], False),
    ("audit", audit_main, [], True),
    ("vec", vec_main, [], True),
    ("flow", flow_main, [], True),
)

#: The whole-program tiers by name; every other tool is the linter.
_TIERS = {tier.section: tier for tier in (AUDIT, VEC, FLOW)}


def run_tools(
    names: List[str], fmt: str, manifests: bool
) -> Tuple[int, Dict[str, Dict[str, Any]]]:
    """Run the selected tools in one pass; return (merged status, per-tool results).

    Each tool reports, gates and exits as its command line does with the
    ``TOOLS`` base argv.
    """
    status = 0
    results: Dict[str, Dict[str, Any]] = {}
    files: Dict[str, FileReport] = {}
    project: Optional[Project] = None
    for name, _entry, base, gated in TOOLS:
        if name not in names:
            continue
        prog = f"repro-{name}"
        if fmt == "text":
            print(f"== {prog} ==")
        report: Optional[RunReport] = None
        try:
            paths = existing_paths(base, DEFAULT_PATHS)
        except UsageError as exc:
            print(f"{prog}: error: {exc}", file=sys.stderr)
            exit_code = 2
        else:
            gate = (True, "")
            if name in _TIERS:
                # Every tier analyzes the default paths: load them once.
                project = project or Project.load(paths, files=files)
                report = _TIERS[name].check(project)
                gate = _TIERS[name].gate(report, check=manifests and gated)
            else:
                report = lint_paths(paths)
                files = {loaded.path: loaded for loaded in report.files}
            exit_code = finish(report, fmt, prog, gate, quiet=fmt == "json")
        results[name] = {"exit": exit_code}
        if fmt == "json":
            results[name]["report"] = None if report is None else json_document(report)
        status = max(status, exit_code)
    return status, results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Run every static-analysis tier (repro-lint, repro-audit, "
            "repro-vec, repro-flow) and exit with the worst tool status."
        ),
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=("text", "json"),
        default="text",
        help="per-tool text reports, or one merged JSON report",
    )
    parser.add_argument(
        "--check-manifests",
        action="store_true",
        help=(
            "forward --check-manifest to every manifest-bearing tier "
            "(audit, vec, flow)"
        ),
    )
    parser.add_argument(
        "--skip",
        action="append",
        metavar="TOOLS",
        help="comma-separated tool names to skip (lint, audit, vec, flow)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    known = [name for name, _entry, _base, _gated in TOOLS]
    skipped = [
        part.strip()
        for chunk in (args.skip or [])
        for part in chunk.split(",")
        if part.strip()
    ]
    unknown = [name for name in skipped if name not in known]
    if unknown:
        print(
            f"repro-check: error: unknown tool(s): {', '.join(unknown)}; "
            f"known tools: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    names = [name for name in known if name not in skipped]
    if not names:
        print("repro-check: error: every tool skipped", file=sys.stderr)
        return 2

    status, results = run_tools(names, args.format, args.check_manifests)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "version": 1,
                    "status": status,
                    "manifests_checked": bool(args.check_manifests),
                    "tools": results,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        summary = " ".join(
            f"{name}={results[name]['exit']}" for name in names
        )
        print(f"repro-check: {summary} -> exit {status}")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via the script
    sys.exit(main())
