"""Finding reporters: human text and machine JSON.

Both render from the same sorted finding list, so output is
byte-stable across runs, worker counts, and machines — the linter
holds itself to the determinism bar it enforces.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .core import RunReport

__all__ = [
    "JSON_SCHEMA_VERSION",
    "json_document",
    "render_json",
    "render_report",
    "render_text",
    "summary_dict",
]

#: Bump when the JSON envelope shape changes (consumed by CI tooling).
JSON_SCHEMA_VERSION = 1


def summary_dict(report: RunReport) -> Dict[str, Any]:
    return {
        "files": len(report.files),
        "files_suppressed": sum(1 for f in report.files if f.file_suppressed),
        "findings": len(report.findings),
        "suppressed": len(report.suppressed),
        "by_rule": report.counts_by_rule,
    }


def render_report(report: RunReport, fmt: str, prog: str = "repro-lint") -> str:
    """``report`` in a CLI's ``--format``: ``"json"`` or ``"text"``."""
    return render_json(report) if fmt == "json" else render_text(report, prog=prog)


def render_text(report: RunReport, prog: str = "repro-lint") -> str:
    """One ``path:line:col: ID [name] message`` line per finding + summary.

    ``prog`` labels the summary line; ``repro-audit`` reuses this
    renderer over its own findings.
    """
    lines = [
        f"{finding.location()}: {finding.rule_id} [{finding.rule_name}] "
        f"{finding.message}"
        for finding in report.findings
    ]
    summary = summary_dict(report)
    if summary["findings"]:
        per_rule = ", ".join(
            f"{rule_id}:{count}"
            for rule_id, count in sorted(summary["by_rule"].items())
        )
        lines.append(
            f"{prog}: {summary['findings']} finding(s) in "
            f"{summary['files']} file(s) [{per_rule}] "
            f"({summary['suppressed']} suppressed)"
        )
    else:
        lines.append(
            f"{prog}: clean — {summary['files']} file(s), "
            f"{summary['suppressed']} finding(s) suppressed, "
            f"{summary['files_suppressed']} file(s) skipped by directive"
        )
    return "\n".join(lines)


def render_json(report: RunReport) -> str:
    """Stable-schema JSON: ``{"version", "findings", "summary"}``."""
    return json.dumps(json_document(report), indent=2, sort_keys=True)


def json_document(report: RunReport) -> Dict[str, Any]:
    """The document :func:`render_json` prints (``repro-check`` nests it)."""
    return {
        "version": JSON_SCHEMA_VERSION,
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "rule": finding.rule_id,
                "name": finding.rule_name,
                "message": finding.message,
            }
            for finding in report.findings
        ],
        "summary": summary_dict(report),
    }
