"""One driver for the whole-program tiers: ``repro-audit``, ``-vec``, ``-flow``.

The tiers differ only in what they infer about a project and what their
sections of the shared manifest record.  Everything else lives here
once: the context, rule and report bases, the check loop, the
sanctioned ledger the sections commit, the manifest gate and the command
line (:class:`Tier`).  Adding a tier means declaring its rules, a
context builder and a section builder.  :meth:`Tier.check` leaves the
project it is given as it was, so ``repro-check`` gives all three one.

Usage, for ``repro-audit`` (RPL2xx), ``repro-vec`` (RPL3xx) and
``repro-flow`` (RPL4xx) alike::

    repro-vec                      # analyze src, report findings
    repro-vec --check-manifest     # CI gate: findings OR manifest drift fail
    repro-vec --write-manifest     # rewrite the tier's ANALYSIS_MANIFEST.json section
    repro-vec --format json        # machine-readable report
    repro-vec --select RPL311      # one rule of the tier's family
    repro-vec --list-rules         # the family's catalogue with rationale

Exit codes: 0 clean, 1 findings (or manifest drift under
``--check-manifest``), 2 usage error.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..lint.cli import (
    UsageError,
    base_parser,
    existing_paths,
    finish,
    render_rule_catalogue,
    split_rule_list,
)
from ..lint.core import FileReport, Finding, RunReport
from ..lint.manifest import MANIFEST_FILE, diff_section, write_section
from ..lint.rules import family_of, find_rule, select_rules
from .project import FunctionNode, ModuleRecord, Project

__all__ = [
    "DEFAULT_PATHS",
    "ProjectContext",
    "ProjectReport",
    "ProjectRule",
    "Tier",
    "function_of",
    "sanctioned_ledger",
    "short_trace",
]

#: What every tier analyzes by default: the importable source tree.
DEFAULT_PATHS = ["src"]


@dataclass
class ProjectContext:
    """Base of every tier's context: the loaded project, plus what the
    tier's context builder derived from it (declared by subclasses)."""

    project: Project

    def record_of(self, fn: FunctionNode) -> ModuleRecord:
        return self.project.modules[fn.module]


class ProjectRule:
    """Base class mirroring the lint Rule protocol, over a whole project."""

    rule_id: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, context: ProjectContext) -> List[Finding]:
        raise NotImplementedError

    def finding(
        self, record: ModuleRecord, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=record.info.path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            rule_name=self.name,
            message=message,
        )


@dataclass
class ProjectReport(RunReport):
    """Outcome of one whole-program run: one ``FileReport`` per analyzed
    module (plus any unparseable file), so the lint reporters and their
    pinned schema serve every tier; ``context`` is the tier's own."""

    context: ProjectContext


def short_trace(trace: Sequence[str], limit: int = 4, tail: int = 1) -> str:
    """A call chain for a finding message, elided past ``limit`` hops."""
    chain = tuple(trace)
    if len(chain) > limit:
        chain = chain[:2] + ("...",) + chain[-tail:]
    return " -> ".join(chain)


def function_of(project: Project, path: str, line: int) -> str:
    """Fully qualified name of the function enclosing ``path:line``."""
    for record in project.modules.values():
        if record.info.path == path:
            return record.function_at_line(line).fq
    return "<unknown>"


def sanctioned_ledger(
    report: ProjectReport, rule_ids: Iterable[str]
) -> List[Dict[str, str]]:
    """Suppressed findings of ``rule_ids`` as sorted, unique manifest entries.

    Entries are keyed line-free (rule, owning function, message) so
    pure code motion does not churn the committed manifest.
    """
    wanted = set(rule_ids)
    project = report.context.project
    keys = {
        (
            finding.rule_id,
            function_of(project, finding.path, finding.line),
            finding.message,
        )
        for finding in report.suppressed
        if finding.rule_id in wanted
    }
    return [
        {"rule": rule, "function": function, "detail": detail}
        for rule, function, detail in sorted(keys)
    ]


@dataclass(frozen=True)
class Tier:
    """What one whole-program tier declares; :meth:`main` is its CLI."""

    prog: str
    description: str
    rules: Sequence[ProjectRule]
    #: How its rules are named in errors (``"audit rule"``).
    kind: str
    build_context: Callable[[Project], ProjectContext]
    #: The tier's key in the shared manifest (its name in ``repro.check.TOOLS``).
    section: str
    build_section: Callable[[ProjectReport], Dict[str, Any]]
    #: Closing line of ``--list-rules``: how to sanction a finding.
    sanction_hint: str

    def lookup(self, identifier: str) -> ProjectRule:
        """A rule of this tier by ID (``RPL201``) or name (``seed-drop``)."""
        return find_rule(self.rules, identifier, self.kind)

    def run(
        self,
        paths: Sequence[Union[str, Path]],
        suppressions: str = "all",
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> ProjectReport:
        """Load ``paths`` and :meth:`check` them (``run_audit`` and its kin).

        ``suppressions`` follows the lint convention: ``"all"`` honours
        ``disable-file`` headers (production), ``"line"`` looks inside
        them (the tiers' own fixture trees).
        """
        project = Project.load(paths, suppressions=suppressions)
        return self.check(project, select, ignore)

    def check(
        self,
        project: Project,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> ProjectReport:
        """Analyze a loaded project and apply every (selected) rule.

        Line suppressions on a finding's reported line are honoured;
        suppressed findings are kept apart so reports and manifests can
        show them.
        """
        chosen = select_rules(self.rules, select, ignore, self.kind)
        context = self.build_context(project)
        raw = [finding for rule in chosen for finding in rule.check(context)]
        records = {record.info.path: record for record in project.modules.values()}
        files = {path: FileReport(path, [], []) for path in records}
        for finding in sorted(raw + project.parse_failures):
            record = records.get(finding.path)
            file = files.setdefault(finding.path, FileReport(finding.path, [], []))
            if record is not None and record.info.suppressions.covers(finding):
                file.suppressed.append(finding)
            else:
                file.findings.append(finding)
        return ProjectReport([files[path] for path in sorted(files)], context)

    def gate(
        self, report: ProjectReport, write: bool = False, check: bool = False
    ) -> Tuple[bool, str]:
        """Write or check the tier's manifest section: (passed, message).

        The message is empty when there is nothing to do, and holds the
        drift and its diff when the check fails.
        """
        if write:
            write_section(self.section, self.build_section(report))
            return True, f"{self.prog}: wrote {MANIFEST_FILE} [{self.section}]\n"
        if not check:
            return True, ""
        drift = diff_section(self.section, self.build_section(report))
        if drift is None:
            return True, (
                f"{self.prog}: manifest {MANIFEST_FILE} [{self.section}] "
                "is current\n"
            )
        return False, (
            f"{self.prog}: manifest drift — {MANIFEST_FILE} "
            f"[{self.section}] no longer matches the analyzed source; "
            "regenerate with --write-manifest and commit the result\n" + drift
        )

    def main(self, argv: Optional[List[str]] = None) -> int:
        """Exit codes: 0 clean, 1 findings or manifest drift, 2 usage error."""
        parser = base_parser(
            self.prog, self.description, "directories to analyze", DEFAULT_PATHS
        )
        parser.add_argument(
            "--write-manifest",
            action="store_true",
            help=f"regenerate this tier's section of {MANIFEST_FILE} from source",
        )
        parser.add_argument(
            "--check-manifest",
            action="store_true",
            help="fail (exit 1) when the committed section has drifted",
        )
        args = parser.parse_args(argv)

        if args.list_rules:
            family = family_of(self.rules[0].rule_id)
            print(
                render_rule_catalogue(
                    f"{self.prog} rules ({family}):", self.rules, self.sanction_hint
                )
            )
            return 0

        try:
            select = split_rule_list(args.select, "--select", self.lookup)
            ignore = split_rule_list(args.ignore, "--ignore", self.lookup)
            paths = existing_paths(args.paths, DEFAULT_PATHS)
            if args.write_manifest and args.check_manifest:
                raise UsageError(
                    "--write-manifest and --check-manifest are mutually exclusive"
                )
        except UsageError as exc:
            print(f"{self.prog}: error: {exc}", file=sys.stderr)
            return 2

        report = self.check(Project.load(paths), select, ignore)
        gate = self.gate(report, args.write_manifest, args.check_manifest)
        return finish(report, args.format, self.prog, gate)
