"""``repro-lint`` console entry point, and the front end every tier shares.

Usage::

    repro-lint                       # lint src benchmarks tests
    repro-lint src/repro/netsim      # lint a subtree
    repro-lint --select RPL104       # run one rule
    repro-lint --ignore set-order    # run all but one (IDs or names)
    repro-lint --format json         # machine-readable report
    repro-lint --list-rules          # rule catalogue with rationale

Exit codes: 0 clean, 1 findings, 2 usage error — so CI can gate on it
directly.  The whole-program tiers (``repro.audit.tier``) build on the
parser, the ``--select``/``--ignore`` splitter, the path check and the
catalogue renderer defined here, so all four CLIs agree on them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .core import PARSE_ERROR_ID, RunReport, lint_paths
from .reporters import render_report
from .rules import RULES, rule_by_identifier

__all__ = [
    "UsageError",
    "base_parser",
    "existing_paths",
    "finish",
    "main",
    "render_rule_catalogue",
    "split_rule_list",
]

_DEFAULT_PATHS = ["src", "benchmarks", "tests", "examples"]

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


class UsageError(Exception):
    """A bad command line: reported as ``<prog>: error: ...``, exit 2."""


def split_rule_list(
    values: Optional[List[str]], option: str, lookup: Callable[[str], Any]
) -> Optional[List[str]]:
    """The rule names given to ``--select``/``--ignore``, each validated.

    ``None`` when the option is absent.  A value that names no rule
    (``--select ""``, ``--select ,``) is a usage error: it would
    otherwise select nothing and pass vacuously.
    """
    if values is None:
        return None
    names: List[str] = []
    for value in values:
        parts = [part.strip() for part in value.split(",") if part.strip()]
        if not parts:
            raise UsageError(f"{option} {value!r} names no rule")
        names.extend(parts)
    for name in names:
        try:
            lookup(name)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
    return names


def existing_paths(
    paths: Optional[List[str]], default_paths: Sequence[str]
) -> List[str]:
    """The positional paths (or the defaults), all of which must exist."""
    paths = paths if paths else list(default_paths)
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        raise UsageError(f"no such path(s): {', '.join(missing)}")
    return paths


def finish(
    report: RunReport,
    fmt: str,
    prog: str,
    gate: Tuple[bool, str] = (True, ""),
    quiet: bool = False,
) -> int:
    """Print a report and a tier's manifest ``gate``; return the exit code.

    A failed gate's message goes to stderr; ``quiet`` leaves stdout to
    the caller (``repro-check``'s merged JSON).
    """
    passed, message = gate
    if not quiet:
        print(render_report(report, fmt, prog=prog))
    if not passed:
        sys.stderr.write(message)
    elif not quiet:
        sys.stdout.write(message)
    return 0 if report.ok and passed else 1


def render_rule_catalogue(header: str, rules: Sequence[Any], footer: str) -> str:
    """``--list-rules`` output: one ID/name/summary row plus rationale per rule."""
    width = max(len(rule.name) for rule in rules) + 2
    lines = [header]
    for rule in rules:
        lines.append(f"  {rule.rule_id}  {rule.name:<{width}} {rule.summary}")
        lines.append(f"          {rule.rationale}")
    lines.append(footer)
    return "\n".join(lines)


def base_parser(
    prog: str, description: str, paths_help: str, default_paths: Sequence[str]
) -> argparse.ArgumentParser:
    """The options every tier takes: paths, format, rule selection, catalogue."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=f"{paths_help} (default: {' '.join(default_paths)})",
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULES",
        help="comma-separated rule IDs/names to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULES",
        help="comma-separated rule IDs/names to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = base_parser(
        "repro-lint",
        "AST-based determinism & parallel-safety linter for the repro "
        "source tree (see the README section 'Determinism rules').",
        "files or directories to lint",
        _DEFAULT_PATHS,
    ).parse_args(argv)

    if args.list_rules:
        print(
            render_rule_catalogue(
                "repro-lint rules:",
                RULES + [_PARSE_ERROR_ROW],
                "suppress a finding with `# repro-lint: disable=<ID> <reason>`; "
                "skip a fixture file with a leading `# repro-lint: disable-file "
                "<reason>` comment",
            )
        )
        return 0

    try:
        select = split_rule_list(args.select, "--select", rule_by_identifier)
        ignore = split_rule_list(args.ignore, "--ignore", rule_by_identifier)
        paths = existing_paths(args.paths, _DEFAULT_PATHS)
    except UsageError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    return finish(lint_paths(paths, select, ignore), args.format, "repro-lint")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
