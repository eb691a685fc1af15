"""The lint tier: AST-based determinism & parallel-safety linter.

The paper's quantitative claims (the span-ratio law, the Fig. 6-8
fork/partition curves) are only reproducible if every stochastic draw
flows through :class:`repro.rng.RngStreams` / :func:`repro.rng.derive_seed`
and no simulation state leaks across instances or processes.  PR 1's
parallel trial engine made that discipline load-bearing — and its
hardest bug (``MiningPool``'s process-global ``itertools.count`` pool
id) was found by hand.  This package makes the discipline
machine-checked: a static-analysis pass over the repo's own source
tree with per-rule IDs, ``# repro-lint: disable=RULE`` suppressions,
and text/JSON reporters.  Command line: ``repro-check --skip
audit,vec,flow`` runs this tier alone; ``repro-check --select RPL103``
one of its rules.

Public API::

    from repro.lint import lint_paths, lint_source, RULES

    report = lint_paths(["src", "benchmarks", "tests"])
    for finding in report.findings:
        print(finding.path, finding.line, finding.rule_id)
"""

from .core import (
    PARSE_ERROR_ID,
    FileReport,
    Finding,
    ImportMap,
    RunReport,
    Suppressions,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    module_dotted_path,
    parse_suppressions,
)
from .rules import RULES, rule_by_identifier

__all__ = [
    "PARSE_ERROR_ID",
    "FileReport",
    "Finding",
    "ImportMap",
    "RULES",
    "RunReport",
    "Suppressions",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_dotted_path",
    "parse_suppressions",
    "rule_by_identifier",
]
