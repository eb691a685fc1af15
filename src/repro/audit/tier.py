"""One driver for the whole-program tiers: audit, vec and flow.

The tiers differ only in what they infer about a project and what their
sections of the shared manifest record.  Everything else lives here
once: the context, rule and report bases, the check loop, the
sanctioned ledger the sections commit and the manifest gate
(:class:`Tier`).  Adding a tier means declaring its rules, a context
builder and a section builder, and listing it in ``repro.check``, the
command line every tier runs under.  :meth:`Tier.check` leaves the
project it is given as it was, so ``repro-check`` gives all three one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..lint.core import FileReport, Finding, RunReport
from ..lint.manifest import MANIFEST_FILE, diff_section, write_section
from ..lint.rules import find_rule, select_rules
from .project import FunctionNode, ModuleRecord, Project

__all__ = [
    "ProjectContext",
    "ProjectReport",
    "ProjectRule",
    "Tier",
    "function_of",
    "sanctioned_ledger",
    "short_trace",
]


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
    """What one whole-program tier declares."""

    rules: Sequence[ProjectRule]
    #: How its rules are named in errors (``"audit rule"``).
    kind: str
    build_context: Callable[[Project], ProjectContext]
    #: The tier's name in ``repro.check.TOOLS`` and its key in the shared manifest.
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
            return True, f"wrote {MANIFEST_FILE} [{self.section}]\n"
        if not check:
            return True, ""
        drift = diff_section(self.section, self.build_section(report))
        if drift is None:
            return True, f"manifest {MANIFEST_FILE} [{self.section}] is current\n"
        return False, (
            f"manifest drift — {MANIFEST_FILE} [{self.section}] no longer "
            "matches the analyzed source; regenerate with repro-check "
            "--write-manifests and commit the result\n" + drift
        )
