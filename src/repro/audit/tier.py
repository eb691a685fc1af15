"""One driver for the whole-program tiers: ``repro-audit``, ``-vec``, ``-flow``.

The tiers differ only in what they infer about a project and what their
sections of the shared manifest record.  Everything else lives here
once: the context and rule bases, the run loop (load, analyze, check,
partition suppressed findings), the report adapter for the lint
reporters, the sanctioned ledger the sections commit, and the command
line (:class:`Tier`).  Adding a tier means declaring its rules, a
context builder and a section builder.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..lint.cli import (
    UsageError,
    base_parser,
    existing_paths,
    render_rule_catalogue,
    split_rule_list,
)
from ..lint.core import FileReport, Finding, RunReport
from ..lint.manifest import MANIFEST_FILE, diff_section, write_section
from ..lint.reporters import render_report
from ..lint.rules import family_of, select_rules
from .project import FunctionNode, ModuleRecord, Project

__all__ = [
    "DEFAULT_PATHS",
    "ProjectContext",
    "ProjectReport",
    "ProjectRule",
    "Tier",
    "as_run_report",
    "function_of",
    "run_rules",
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
class ProjectReport:
    """Outcome of one whole-program run; ``context`` is the tier's own."""

    context: ProjectContext
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def run_rules(
    paths: Sequence[Union[str, Path]],
    rules: Sequence[ProjectRule],
    kind: str,
    build_context: Callable[[Project], ProjectContext],
    suppressions: str = "all",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> ProjectReport:
    """Load, analyze, and apply every (selected) rule of one tier.

    ``suppressions`` follows the lint convention: ``"all"`` honours
    ``disable-file`` headers (production), ``"line"`` looks inside
    them (the tiers' own fixture trees).  Line suppressions on a
    finding's reported line are honoured in both modes; suppressed
    findings are retained separately so reports and manifests can
    show them.
    """
    chosen = select_rules(rules, select, ignore, kind)
    project = Project.load(paths, suppressions=suppressions)
    context = build_context(project)
    raw: List[Finding] = []
    for rule in chosen:
        raw.extend(rule.check(context))
    raw.extend(project.parse_failures)
    raw.sort()
    by_path = {
        record.info.path: record for record in project.modules.values()
    }
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        record = by_path.get(finding.path)
        if record is not None and record.suppressions.covers(finding):
            suppressed.append(finding)
        else:
            findings.append(finding)
    return ProjectReport(context=context, findings=findings, suppressed=suppressed)


def as_run_report(report: ProjectReport) -> RunReport:
    """Adapt a tier outcome to the lint reporters' ``RunReport`` shape.

    One ``FileReport`` per analyzed module (plus any unparseable file),
    so the shared text/JSON renderers — and their pinned schema — serve
    every tool.
    """
    by_path: Dict[str, FileReport] = {}

    def slot(path: str) -> FileReport:
        if path not in by_path:
            by_path[path] = FileReport(path=path, findings=[], suppressed=[])
        return by_path[path]

    for record in report.context.project.modules.values():
        slot(record.info.path)
    for finding in report.findings:
        slot(finding.path).findings.append(finding)
    for finding in report.suppressed:
        slot(finding.path).suppressed.append(finding)
    return RunReport(files=[by_path[path] for path in sorted(by_path)])


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
    lookup: Callable[[str], ProjectRule]
    run: Callable[..., ProjectReport]
    #: The tier's key in the shared manifest (its name in ``repro.check.TOOLS``).
    section: str
    build_section: Callable[[ProjectReport], Dict[str, Any]]
    #: Closing line of ``--list-rules``: how to sanction a finding.
    sanction_hint: str

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

        report = self.run(paths, select=select, ignore=ignore)
        print(render_report(as_run_report(report), args.format, prog=self.prog))

        status = 0 if report.ok else 1
        if args.write_manifest:
            write_section(self.section, self.build_section(report))
            print(f"{self.prog}: wrote {MANIFEST_FILE} [{self.section}]")
        elif args.check_manifest:
            drift = diff_section(self.section, self.build_section(report))
            if drift is not None:
                print(
                    f"{self.prog}: manifest drift — {MANIFEST_FILE} "
                    f"[{self.section}] no longer matches the analyzed source; "
                    "regenerate with --write-manifest and commit the result",
                    file=sys.stderr,
                )
                sys.stderr.write(drift)
                status = 1
            else:
                print(
                    f"{self.prog}: manifest {MANIFEST_FILE} [{self.section}] "
                    "is current"
                )
        return status
