"""Linter engine: file discovery, parsing, suppression handling.

The engine is deliberately free of rule knowledge: rules (see
:mod:`repro.lint.rules`) receive a parsed :class:`ModuleInfo` and
return :class:`Finding` lists; this module drives them over files,
applies ``# repro-lint:`` suppression comments, and aggregates
everything into a :class:`RunReport` with deterministically sorted
findings (so CI output and the JSON reporter are stable byte-for-byte
across runs and machines).

:func:`load_file` is every tier's front end: it parses a file and reads
its directives once, into the :class:`ModuleInfo` all tiers share.  Its
:class:`NodeIndex` walks the tree once; rules and the import map read
nodes and scopes there instead of walking again.

Suppression syntax (parsed from real comment tokens, so the same text
inside a string literal is inert):

- ``# repro-lint: disable=RPL104 <reason>`` — suppress the named
  rule(s) on this line; comma-separate several IDs; rule *names*
  (``set-order``) work too; ``disable=all`` suppresses every rule.
  The free-text reason after the rule list is required by convention
  (CONTRIBUTING-level policy, not enforced here).
- ``# repro-lint: disable-file <reason>`` within the first
  :data:`FILE_DIRECTIVE_WINDOW` lines — skip the whole file.  Used by
  the linter's own rule-trigger fixtures under ``tests/lint/fixtures``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

__all__ = [
    "FILE_DIRECTIVE_WINDOW",
    "FileReport",
    "Finding",
    "ImportMap",
    "ModuleInfo",
    "NodeIndex",
    "PARSE_ERROR_ID",
    "RunReport",
    "SCOPE_TYPES",
    "Scope",
    "Suppressions",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_file",
    "load_source",
    "module_dotted_path",
    "parse_error",
    "parse_suppressions",
]

#: Pseudo rule ID for files the parser rejects (not selectable/ignorable
#: by name; a file that does not parse can never be certified clean).
PARSE_ERROR_ID = "RPL900"

#: ``disable-file`` must appear within this many leading lines.
FILE_DIRECTIVE_WINDOW = 5

_DISABLE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,-]+)(?P<reason>\s.*)?$"
)
_DISABLE_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file(?P<reason>\s.*)?$")

#: Nodes that open a name scope of their own (the module is the other).
SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


def module_dotted_path(path: Union[str, Path]) -> Tuple[Optional[str], bool]:
    """Dotted module path of a file, derived from ``__init__.py`` markers.

    Walks up from the file as long as each parent directory is a
    package (contains ``__init__.py``).  Returns ``(dotted, is_package)``
    where ``is_package`` is True for ``__init__.py`` files (whose dotted
    path is the package itself).  A file outside any package returns
    ``(None, False)`` — relative imports cannot be resolved for it.
    """
    file_path = Path(path)
    parts: List[str] = []
    is_package = file_path.name == "__init__.py"
    if not is_package:
        parts.append(file_path.stem)
    parent = file_path.parent
    found_package = False
    while (parent / "__init__.py").exists():
        found_package = True
        parts.append(parent.name)
        parent = parent.parent
    if not found_package:
        return None, False
    return ".".join(reversed(parts)), is_package


@dataclass(eq=False)
class Scope:
    """One name scope: the module, a def, a lambda or a class body.

    ``nodes`` are the nodes the scope owns, in walk order: its body and
    everything under it, down to and including each nested scope's node
    but not that scope's body.  A def's decorators, defaults and
    annotations (a class's bases, a lambda's defaults) belong to no
    scope.  ``parent`` is the scope owning ``node`` (None for the module
    and for a scope inside one of those unowned parts).
    """

    node: ast.AST
    parent: Optional["Scope"] = field(repr=False)
    nodes: List[ast.AST] = field(default_factory=list, repr=False)


class NodeIndex:
    """One walk of a module: its nodes, by type, and its scopes.

    The walk is ``ast.walk``'s breadth-first order, done in place so each
    node's fields are read once, both to queue its children and to hand
    them to their owning scope.  ``scopes`` holds the module scope, then
    each def, lambda and class.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.nodes: List[ast.AST] = []
        self.by_type: Dict[type, List[ast.AST]] = {}
        self.scopes = [Scope(tree, None)]
        # (node, the scope owning it, or None), in ast.walk order.
        todo = deque([(tree, self.scopes[0])])
        while todo:
            node, inner = todo.popleft()
            self.nodes.append(node)
            self.by_type.setdefault(type(node), []).append(node)
            outer = inner
            if isinstance(node, SCOPE_TYPES):
                inner, outer = Scope(node, outer), None
                self.scopes.append(inner)
            elif node is tree:
                outer = None
            for name in node._fields:
                value = getattr(node, name, None)
                if isinstance(value, ast.AST):
                    value = (value,)
                elif not isinstance(value, list):
                    continue
                owner = inner if name == "body" else outer
                for child in value:
                    if isinstance(child, ast.AST):
                        todo.append((child, owner))
                        if owner is not None:
                            owner.nodes.append(child)

    def of(self, *types: type) -> List[ast.AST]:
        """Nodes of exactly these types, in walk order (do not mutate)."""
        if len(types) == 1:
            return self.by_type.get(types[0], [])
        return [node for node in self.nodes if type(node) in types]

    def scope_of(self, node: ast.AST) -> Optional[Scope]:
        """The scope owning ``node`` (None for decorators, defaults, ...)."""
        return next((scope for scope in self.scopes if node in scope.nodes), None)


class ImportMap:
    """Maps local names to canonical dotted module paths.

    ``import numpy as np`` makes ``np.random.rand`` resolve to
    ``numpy.random.rand``; ``from random import choice`` makes a bare
    ``choice`` resolve to ``random.choice``.  Rules match on the
    canonical form so aliasing cannot dodge them.

    When the module's own dotted path is known (``module=`` plus
    ``is_package=``), package-relative imports resolve too: inside
    ``repro.experiments.figure6``, ``from .base import ExperimentResult``
    canonicalizes to ``repro.experiments.base.ExperimentResult`` and
    ``from . import table1 as t1`` binds ``t1`` to
    ``repro.experiments.table1`` — so intra-repo aliases participate in
    rule matching instead of silently dropping out.
    """

    def __init__(
        self,
        index: NodeIndex,
        module: Optional[str] = None,
        is_package: bool = False,
    ) -> None:
        self.module = module
        self.is_package = is_package
        self.aliases: Dict[str, str] = {}
        # In walk order: a later alias of a name wins.
        for node in index.of(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a``; canonical is ``a``.
                        head = alias.name.split(".")[0]
                        self.aliases.setdefault(head, head)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = self._relative_base(node.level)
                    if base is None:
                        continue  # unknown module path: cannot resolve
                else:
                    if node.module is None:
                        continue
                    base = node.module
                prefix = f"{base}.{node.module}" if node.level and node.module else base
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{prefix}.{alias.name}"

    def _relative_base(self, level: int) -> Optional[str]:
        """Package that ``level`` leading dots refer to, or None.

        One dot is the module's own package (for a package's
        ``__init__.py``, the package itself); each extra dot climbs one
        package higher.  Returns None when the module path is unknown
        or the dots climb past the top-level package.
        """
        if not self.module:
            return None
        parts = self.module.split(".")
        if not self.is_package:
            parts = parts[:-1]  # the containing package
        climb = level - 1
        if climb >= len(parts):
            return None
        if climb:
            parts = parts[:-climb]
        if not parts:
            return None
        return ".".join(parts)

    @staticmethod
    def dotted_parts(expr: ast.AST) -> Optional[List[str]]:
        """``a.b.c`` attribute chain as ``["a","b","c"]`` (None if not one)."""
        parts: List[str] = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if isinstance(expr, ast.Name):
            parts.append(expr.id)
            return list(reversed(parts))
        return None

    def resolve(self, expr: ast.AST) -> Optional[str]:
        """Canonical dotted name of an expression, or None."""
        parts = self.dotted_parts(expr)
        if not parts:
            return None
        head = self.aliases.get(parts[0], parts[0])
        return ".".join([head] + parts[1:])


@dataclass
class Suppressions:
    """Per-line and whole-file suppression directives of one module."""

    lines: Dict[int, Set[str]] = field(default_factory=dict)
    file_disabled: bool = False

    def covers(self, finding: Finding) -> bool:
        tokens = self.lines.get(finding.line)
        if not tokens:
            return False
        return (
            "all" in tokens
            or finding.rule_id.lower() in tokens
            or finding.rule_name.lower() in tokens
        )


def parse_suppressions(source: str) -> Suppressions:
    """Extract directives from comment tokens (never from strings)."""
    result = Suppressions()
    if "repro-lint:" not in source:
        return result  # no directive can match: skip tokenizing
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            line = tok.start[0]
            match = _DISABLE_FILE_RE.search(tok.string)
            if match and line <= FILE_DIRECTIVE_WINDOW:
                result.file_disabled = True
                continue
            match = _DISABLE_RE.search(tok.string)
            if match:
                names = {
                    part.strip().lower()
                    for part in match.group("rules").split(",")
                    if part.strip()
                }
                result.lines.setdefault(line, set()).update(names)
    except tokenize.TokenError:
        pass  # the ast parse already reports the syntax problem
    return result


@dataclass
class ModuleInfo:
    """Everything a rule needs to inspect one parsed module.

    ``module`` is the dotted import path when known (``None`` for
    sources linted outside any package); with it set, the import map
    resolves package-relative imports to canonical intra-repo names.
    Lint and the audit's effect pass share its per-rule findings.
    """

    path: str
    source: str
    tree: ast.Module
    imports: ImportMap
    #: The one walk of ``tree`` that rules read.
    index: NodeIndex = field(repr=False, compare=False)
    module: Optional[str] = None
    suppressions: Suppressions = field(default_factory=Suppressions)
    _memo: Dict[str, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def resolve(self, expr: ast.AST) -> Optional[str]:
        return self.imports.resolve(expr)

    def memo(self, key: str, compute: Callable[["ModuleInfo"], Any]) -> Any:
        """``compute(self)``, computed once per ``key`` (do not mutate it)."""
        if key not in self._memo:
            self._memo[key] = compute(self)
        return self._memo[key]

    def findings(self, rule: Any) -> List[Finding]:
        """``rule``'s unsuppressed findings here, checked once (do not mutate)."""
        return self.memo(rule.rule_id, rule.check)


@dataclass
class FileReport:
    """Lint outcome for a single file."""

    path: str
    findings: List[Finding]
    suppressed: List[Finding]
    file_suppressed: bool = False
    #: The parsed module (``None`` when it does not parse or is skipped).
    info: Optional[ModuleInfo] = field(default=None, compare=False, repr=False)


@dataclass
class RunReport:
    """Aggregated outcome of one lint run over many files."""

    files: List[FileReport]

    @property
    def findings(self) -> List[Finding]:
        return sorted(f for report in self.files for f in report.findings)

    @property
    def suppressed(self) -> List[Finding]:
        return sorted(f for report in self.files for f in report.suppressed)

    @property
    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return not self.findings


def parse_error(path: str, exc: SyntaxError) -> Finding:
    """The RPL900 finding every tier reports for a file that does not parse."""
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        rule_id=PARSE_ERROR_ID,
        rule_name="parse-error",
        message=f"file does not parse: {exc.msg}",
    )


def load_source(
    source: str,
    path: str = "<string>",
    suppressions: str = "all",
    module: Optional[str] = None,
    is_package: bool = False,
) -> FileReport:
    """Parse one source: the front end every tier shares.

    The report carries the :class:`ModuleInfo` as ``info`` and no
    findings yet — or the RPL900 finding of a file that does not parse,
    or, under ``suppressions="all"``, ``file_suppressed`` for a
    ``disable-file`` module.  ``module``/``is_package`` name its dotted
    import path, for relative-import resolution.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return FileReport(path, [parse_error(path, exc)], [])
    directives = parse_suppressions(source)
    if suppressions == "all" and directives.file_disabled:
        return FileReport(path, [], [], file_suppressed=True)
    index = NodeIndex(tree)
    imports = ImportMap(index, module=module, is_package=is_package)
    info = ModuleInfo(path, source, tree, imports, index, module, directives)
    return FileReport(path, [], [], info=info)


def load_file(path: Union[str, Path], suppressions: str = "all") -> FileReport:
    """:func:`load_source` over a file (posix path; dotted path from markers)."""
    file_path = Path(path)
    source = file_path.read_text(encoding="utf-8")
    dotted, is_package = module_dotted_path(file_path)
    return load_source(source, file_path.as_posix(), suppressions, dotted, is_package)


def _lint(
    loaded: FileReport,
    select: Optional[Iterable[str]],
    ignore: Optional[Iterable[str]],
    suppressions: str,
) -> FileReport:
    """Apply the selected rules to a loaded file, then its directives."""
    if suppressions not in ("all", "line", "none"):
        raise ValueError(f"unknown suppressions mode: {suppressions!r}")
    info = loaded.info
    if info is None:
        return loaded
    from .rules import RULES, select_rules  # deferred: the rules import this module

    rules = select_rules(RULES, select, ignore)
    raw = sorted(finding for rule in rules for finding in info.findings(rule))
    if suppressions == "none":
        return FileReport(loaded.path, raw, [], info=info)
    covers = info.suppressions.covers
    kept = [f for f in raw if not covers(f)]
    return FileReport(loaded.path, kept, [f for f in raw if covers(f)], info=info)


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    suppressions: str = "all",
    module: Optional[str] = None,
    is_package: bool = False,
) -> FileReport:
    """Lint one source string.

    ``suppressions`` controls directive handling: ``"all"`` honours
    line comments and ``disable-file`` (production behaviour),
    ``"line"`` honours only line comments (the fixture self-tests use
    this to look inside intentionally-bad files that carry a
    ``disable-file`` header), ``"none"`` reports everything.
    ``module``/``is_package`` are those of :func:`load_source`.
    """
    loaded = load_source(source, path, suppressions, module, is_package)
    return _lint(loaded, select, ignore, suppressions)


def lint_file(
    path: Union[str, Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    suppressions: str = "all",
) -> FileReport:
    """Lint one file from disk (path reported in posix form)."""
    return _lint(load_file(path, suppressions), select, ignore, suppressions)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    Shared by lint and whole-program project discovery.  Guarantees:

    - deterministic posix-path ordering regardless of input order or
      filesystem enumeration order;
    - duplicate paths (a file named twice, or via its parent directory)
      appear once;
    - symlink loops cannot recurse forever (``**`` globbing does not
      follow directory symlinks);
    - a nonexistent path raises :class:`FileNotFoundError` instead of
      silently linting nothing.
    """
    seen: Set[str] = set()
    collected: List[Tuple[str, Path]] = []
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"), key=lambda p: p.as_posix())
        elif not root.exists():
            raise FileNotFoundError(f"no such lint target: {root}")
        else:
            candidates = [root]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            key = candidate.as_posix()
            if key in seen:
                continue
            seen.add(key)
            collected.append((key, candidate))
    collected.sort(key=lambda pair: pair[0])
    return [path for _, path in collected]


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    suppressions: str = "all",
) -> RunReport:
    """Lint every ``*.py`` under ``paths``; the main library entry point.

    The file reports keep their parsed modules (``info``): a project can
    be built from them (``Project.load(..., files=...)``).
    """
    select = list(select) if select is not None else None
    ignore = list(ignore) if ignore is not None else None
    return RunReport(
        files=[
            lint_file(path, select=select, ignore=ignore, suppressions=suppressions)
            for path in iter_python_files(paths)
        ]
    )
