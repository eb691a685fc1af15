"""``repro-check``: the one command for the four static-analysis tiers.

The tiers share the RPL rule namespace: ``lint`` (RPL1xx, per-file
determinism), ``audit`` (RPL2xx, whole-program purity), ``vec``
(RPL3xx, numeric kernels and hot paths) and ``flow`` (RPL4xx, cache
soundness).  One run is one analysis pass: lint parses each file once,
and audit, vec and flow check one project built from those modules,
sharing its call graph, its worker list and lint's per-module findings.
With no paths, lint checks ``src benchmarks tests examples`` and the
other tiers check ``src``; given paths, every tier checks them.

Audit, vec and flow each own a section of the committed
``ANALYSIS_MANIFEST.json``; ``--check-manifests`` fails on drift and
``--write-manifests`` regenerates the sections of the tiers that ran
from every rule's findings (so it takes no ``--select``/``--ignore``).

Usage::

    repro-check                          # all four tiers, text reports
    repro-check --check-manifests        # the CI gate, manifest drift included
    repro-check --write-manifests        # regenerate the manifest sections
    repro-check --format json            # one merged JSON report
    repro-check src/repro/netsim         # every tier over a subtree
    repro-check --select RPL311          # one rule; only its tier runs
    repro-check --ignore set-order       # every rule but one (IDs or names)
    repro-check --skip lint,vec          # a subset of the tiers
    repro-check --list-rules             # the rule catalogue with rationale

Exit codes: the worst tier status — 0 clean, 1 findings or manifest
drift, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .audit.project import Project
from .audit.rules import TIER as AUDIT
from .flow.rules import TIER as FLOW
from .lint.core import PARSE_ERROR_ID, FileReport, RunReport, lint_paths
from .lint.reporters import json_document, render_text
from .lint.rules import RULES as LINT_RULES
from .lint.rules import find_rule
from .vec.rules import TIER as VEC

__all__ = ["TIERS", "TOOLS", "main", "run_tools"]

#: The whole-program tiers by name, which is also their manifest section.
TIERS = {tier.section: tier for tier in (AUDIT, VEC, FLOW)}

#: Every tier's rules and the closing line of its ``--list-rules`` block.
_CATALOGUE: Dict[str, Tuple[Sequence[Any], str]] = {
    "lint": (
        LINT_RULES,
        "suppress a finding with `# repro-lint: disable=<ID> <reason>`; "
        "skip a fixture file with a leading `# repro-lint: disable-file "
        "<reason>` comment",
    ),
    **{name: (tier.rules, tier.sanction_hint) for name, tier in TIERS.items()},
}

#: The tier owning each rule ID.
_OWNER = {
    rule.rule_id: name for name, (rules, _hint) in _CATALOGUE.items() for rule in rules
}

#: RPL900 as a catalogue row; it is not a rule object, so it cannot be
#: selected, ignored or suppressed.
_PARSE_ERROR_ROW = SimpleNamespace(
    rule_id=PARSE_ERROR_ID,
    name="parse-error",
    summary="file does not parse (pseudo-rule)",
    rationale=(
        "Reported whenever a file fails to parse as Python: a file the "
        "AST rejects can never be certified clean, so the run fails. Not "
        "selectable via --select/--ignore and not suppressible — fix the "
        "syntax error."
    ),
)


def _one_tier(name: str) -> Callable[[List[str]], int]:
    """``repro-check`` with every tier but ``name`` skipped."""

    def entry(argv: List[str]) -> int:
        others = [other for other in _CATALOGUE if other != name]
        return main([*argv, "--skip", ",".join(others)])

    return entry


#: (name, one-tier entry point, default paths, takes the manifest gates),
#: in tier order.
TOOLS: Tuple[Tuple[str, Callable[[List[str]], int], List[str], bool], ...] = (
    ("lint", _one_tier("lint"), ["src", "benchmarks", "tests", "examples"], False),
    ("audit", _one_tier("audit"), ["src"], True),
    ("vec", _one_tier("vec"), ["src"], True),
    ("flow", _one_tier("flow"), ["src"], True),
)

#: A tier's rule selection: (``--select`` IDs or None, ``--ignore`` IDs or None).
Selection = Tuple[Optional[List[str]], Optional[List[str]]]


class UsageError(Exception):
    """A bad command line: reported as ``repro-check: error: ...``, exit 2."""


def run_tools(
    names: Sequence[str],
    fmt: str = "text",
    paths: Optional[List[str]] = None,
    rules: Optional[Dict[str, Selection]] = None,
    manifests: str = "",
) -> Tuple[int, Dict[str, Dict[str, Any]]]:
    """Run the named tiers in one pass; return (worst status, per-tier results).

    ``paths`` replaces every tier's default paths, ``rules`` maps a tier
    to its :data:`Selection`, and ``manifests`` is ``"check"``,
    ``"write"`` or empty.  A failed manifest gate reports on stderr; in
    JSON mode stdout is left to the caller's merged report.
    """
    status = 0
    results: Dict[str, Dict[str, Any]] = {}
    files: Dict[str, FileReport] = {}
    project: Optional[Project] = None
    for name, _entry, base, _gated in TOOLS:
        if name not in names:
            continue
        if fmt == "text":
            print(f"== {name} ==")
        select, ignore = (rules or {}).get(name, (None, None))
        report: RunReport
        passed, message = True, ""
        if name in TIERS:
            # Every whole-program tier analyzes the same paths: load them once.
            project = project or Project.load(paths or base, files=files)
            report = TIERS[name].check(project, select, ignore)
            passed, message = TIERS[name].gate(
                report, write=manifests == "write", check=manifests == "check"
            )
        else:
            report = lint_paths(paths or base, select, ignore)
            files = {loaded.path: loaded for loaded in report.files}
        if fmt == "text":
            print(render_text(report, prog=name))
        if not passed:
            sys.stderr.write(message)
        elif fmt == "text":
            sys.stdout.write(message)
        exit_code = 0 if report.ok and passed else 1
        results[name] = {"exit": exit_code}
        if fmt == "json":
            results[name]["report"] = json_document(report)
        status = max(status, exit_code)
    return status, results


def _route(values: Optional[List[str]], option: str) -> Optional[Dict[str, List[str]]]:
    """``--select``/``--ignore`` rule IDs grouped by their tier (None if absent).

    A value that names no rule (``--select ""``, ``--select ,``) is a
    usage error: it would otherwise select nothing and pass vacuously.
    """
    if values is None:
        return None
    every_rule = [rule for rules, _hint in _CATALOGUE.values() for rule in rules]
    routed: Dict[str, List[str]] = {}
    for value in values:
        parts = [part.strip() for part in value.split(",") if part.strip()]
        if not parts:
            raise UsageError(f"{option} {value!r} names no rule")
        for part in parts:
            try:
                rule_id = find_rule(every_rule, part).rule_id
            except KeyError as exc:
                raise UsageError(exc.args[0]) from None
            routed.setdefault(_OWNER[rule_id], []).append(rule_id)
    return routed


def _plan(args: argparse.Namespace) -> Tuple[List[str], Dict[str, Selection]]:
    """The tiers to run and each one's rule selection.

    ``--skip`` drops tiers; ``--select`` runs only the tiers owning a
    selected rule.
    """
    skipped = [
        part.strip()
        for chunk in (args.skip or [])
        for part in chunk.split(",")
        if part.strip()
    ]
    unknown = [name for name in skipped if name not in _CATALOGUE]
    if unknown:
        raise UsageError(
            f"unknown tool(s): {', '.join(unknown)}; "
            f"known tools: {', '.join(_CATALOGUE)}"
        )
    select = _route(args.select, "--select")
    ignore = _route(args.ignore, "--ignore") or {}
    names = [
        name
        for name in _CATALOGUE
        if name not in skipped and (select is None or name in select)
    ]
    if not names:
        raise UsageError("every tool skipped")
    return names, {
        name: (None if select is None else select[name], ignore.get(name))
        for name in names
    }


def render_catalogue(names: Sequence[str]) -> str:
    """``--list-rules`` output: each named tier's block, then RPL900.

    A block is a header, one ID/name/summary row plus a rationale line
    per rule, and how to sanction the tier's findings.
    """
    blocks = [
        (f"{name} rules:", *_CATALOGUE[name]) for name in names
    ] + [("every tier:", [_PARSE_ERROR_ROW], "")]
    width = max(len(rule.name) for _h, rules, _f in blocks for rule in rules) + 2
    lines: List[str] = []
    for header, rules, footer in blocks:
        lines.append(header)
        for rule in rules:
            lines.append(f"  {rule.rule_id}  {rule.name:<{width}} {rule.summary}")
            lines.append(f"          {rule.rationale}")
        if footer:
            lines.append(footer)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Run the static-analysis tiers (lint, audit, vec, flow) over the "
            "repro tree in one pass and exit with the worst tier status "
            "(see the README section 'Static analysis')."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories every tier analyzes (default: lint "
            "src benchmarks tests examples, the other tiers src)"
        ),
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=("text", "json"),
        default="text",
        help="per-tier text reports, or one merged JSON report",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULES",
        help="comma-separated rule IDs/names to run exclusively (only their tiers run)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULES",
        help="comma-separated rule IDs/names to skip",
    )
    parser.add_argument(
        "--skip",
        action="append",
        metavar="TOOLS",
        help="comma-separated tiers to skip (lint, audit, vec, flow)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue of the tiers that would run and exit",
    )
    parser.add_argument(
        "--check-manifests",
        action="store_true",
        help="fail (exit 1) when a tier's committed manifest section has drifted",
    )
    parser.add_argument(
        "--write-manifests",
        action="store_true",
        help="regenerate each tier's manifest section from source (every rule)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        names, rules = _plan(args)
        if args.list_rules:
            print(render_catalogue(names))
            return 0
        if args.write_manifests and args.check_manifests:
            raise UsageError(
                "--write-manifests and --check-manifests are mutually exclusive"
            )
        if args.write_manifests and (args.select or args.ignore):
            # A section written from some rules drifts from every rule's.
            raise UsageError("--write-manifests takes no --select or --ignore")
        wanted = args.paths or [
            path for name, _e, base, _g in TOOLS if name in names for path in base
        ]
        missing = sorted({path for path in wanted if not Path(path).exists()})
        if missing:
            raise UsageError(f"no such path(s): {', '.join(missing)}")
    except UsageError as exc:
        print(f"repro-check: error: {exc}", file=sys.stderr)
        return 2

    manifests = "check" if args.check_manifests else ""
    if args.write_manifests:
        manifests = "write"
    status, results = run_tools(names, args.format, args.paths, rules, manifests)
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
        summary = " ".join(f"{name}={results[name]['exit']}" for name in names)
        print(f"repro-check: {summary} -> exit {status}")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via the script
    sys.exit(main())
