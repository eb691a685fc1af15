"""Whole-program view of the repo: modules, symbols, functions, classes.

Where :mod:`repro.lint` sees one file at a time, the audit engine loads
*every* module under the analysis roots into a :class:`Project`:

- each file becomes a :class:`ModuleRecord` keyed by its dotted import
  path (derived from ``__init__.py`` markers, so ``src/repro/rng.py``
  is ``repro.rng``), around the :class:`~repro.lint.core.ModuleInfo`
  the lint front end parsed;
- each module's top-level functions, methods, and classes become
  :class:`FunctionNode`/:class:`ClassNode` symbols, plus one
  ``<module>`` pseudo-function per module holding its import-time
  statements;
- a project-wide resolver maps canonical dotted names (as produced by
  the lint engine's :class:`~repro.lint.core.ImportMap`, including the
  package-relative imports it now resolves) to those symbols, following
  re-export chains such as ``repro.parallel.TrialEngine`` ->
  ``repro.parallel.trials.TrialEngine``.

Everything downstream (call graph, effect inference, the RPL2xx rules)
works on this structure; nothing below this layer re-parses source.
The project also owns what every tier derives from it alike, its call
graph and its worker list, each built once on first use.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..lint.core import (
    FileReport,
    Finding,
    ModuleInfo,
    iter_python_files,
    load_file,
    module_dotted_path,
)
from ..lint.rules.state import module_mutables

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .callgraph import CallGraph
    from .workers import Worker

__all__ = [
    "ClassNode",
    "FunctionNode",
    "MODULE_BODY",
    "ModuleRecord",
    "Project",
    "Target",
    "signature_args",
]

#: Qualname of the per-module pseudo-function holding import-time code.
MODULE_BODY = "<module>"


@dataclass(frozen=True)
class FunctionNode:
    """One function, method, or module body in the project."""

    module: str
    qualname: str  # ``f``, ``Class.method``, or ``<module>``
    params: Tuple[str, ...]
    lineno: int
    end_lineno: int
    #: The ``def`` statement (``None`` for ``<module>``); the one place
    #: downstream passes get a function's syntax tree from.
    node: Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def fq(self) -> str:
        """Fully qualified name, the call-graph node id."""
        return f"{self.module}.{self.qualname}"


@dataclass(frozen=True)
class ClassNode:
    """One class: its methods and constructor surface."""

    module: str
    name: str
    methods: Tuple[str, ...]  # method qualnames (``Class.m``)
    init_params: Tuple[str, ...]  # explicit ``__init__`` params or dataclass fields
    lineno: int
    #: The ``class`` statement this node describes.
    node: ast.ClassDef = field(compare=False, repr=False)
    #: Canonical dotted names of the base-class expressions, as resolved
    #: by the module's import map (project-level resolution happens in
    #: :class:`~repro.audit.callgraph.ClassHierarchy`).
    bases: Tuple[str, ...] = ()

    @property
    def fq(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleRecord:
    """One parsed module plus its symbol table inputs."""

    name: str
    info: ModuleInfo
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassNode] = field(default_factory=dict)
    mutables: Dict[str, Tuple[int, str]] = field(default_factory=dict)

    def function_at_line(self, line: int) -> FunctionNode:
        """Innermost enclosing function of a source line (else ``<module>``).

        Nested defs are not separate nodes, so a line inside one is
        attributed to its enclosing top-level function or method — the
        unit the call graph reasons about.
        """
        best: Optional[FunctionNode] = None
        for fn in self.functions.values():
            if fn.qualname == MODULE_BODY:
                continue
            if fn.lineno <= line <= fn.end_lineno:
                if best is None or fn.lineno > best.lineno:
                    best = fn
        return best if best is not None else self.functions[MODULE_BODY]


#: Resolution result: ``("function", FunctionNode)``, ``("class",
#: ClassNode)``, or ``("module", ModuleRecord)``.
Target = Tuple[str, object]


def signature_args(
    fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> List[ast.arg]:
    """Named parameters in signature order (``*args``/``**kwargs`` excluded)."""
    args = fn.args
    return args.posonlyargs + args.args + args.kwonlyargs


def _function_node(
    module: str, qualname: str, stmt: Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> FunctionNode:
    return FunctionNode(
        module=module,
        qualname=qualname,
        params=tuple(a.arg for a in signature_args(stmt)),
        lineno=stmt.lineno,
        end_lineno=stmt.end_lineno,
        node=stmt,
    )


def _build_record(name: str, info: ModuleInfo) -> ModuleRecord:
    record = ModuleRecord(name=name, info=info, mutables=module_mutables(info))
    tree = info.tree
    module_end = max((stmt.end_lineno for stmt in tree.body), default=1)
    record.functions[MODULE_BODY] = FunctionNode(
        module=name, qualname=MODULE_BODY, params=(), lineno=1, end_lineno=module_end
    )
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            record.functions[stmt.name] = _function_node(name, stmt.name, stmt)
        elif isinstance(stmt, ast.ClassDef):
            methods: List[str] = []
            fields: List[str] = []
            init_params: Tuple[str, ...] = ()
            bases: List[str] = []
            for base in stmt.bases:
                canonical = info.resolve(base)
                if canonical is not None:
                    bases.append(canonical)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{item.name}"
                    record.functions[qualname] = _function_node(name, qualname, item)
                    methods.append(qualname)
                    if item.name == "__init__":
                        # drop ``self``
                        init_params = record.functions[qualname].params[1:]
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    fields.append(item.target.id)
            if not init_params and fields:
                # dataclass-style: annotated fields are the constructor
                init_params = tuple(fields)
            record.classes[stmt.name] = ClassNode(
                module=name,
                name=stmt.name,
                methods=tuple(methods),
                init_params=init_params,
                lineno=stmt.lineno,
                bases=tuple(bases),
                node=stmt,
            )
    return record


class Project:
    """Every analyzable module under the audit roots, by dotted name."""

    def __init__(
        self,
        modules: Dict[str, ModuleRecord],
        parse_failures: Optional[List[Finding]] = None,
        skipped: Optional[List[str]] = None,
    ) -> None:
        self.modules = modules
        self.parse_failures = parse_failures or []
        #: Paths discovered but excluded (outside any package, or
        #: ``disable-file``-suppressed under ``suppressions="all"``).
        self.skipped = skipped or []

    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        paths: Sequence[Union[str, Path]],
        suppressions: str = "all",
        files: Optional[Dict[str, FileReport]] = None,
    ) -> "Project":
        """Parse every ``*.py`` under ``paths`` into a project.

        ``suppressions="all"`` (production) excludes ``disable-file``
        modules — the lint fixture convention; ``"line"`` keeps them
        (the audit's own fixture trees carry ``disable-file`` headers so
        the repo-wide *per-file* lint skips their deliberate bugs).
        Files outside any package (no ``__init__.py`` chain, e.g. the
        ``examples/`` scripts) have no importable dotted path, cannot
        appear in any worker's import graph, and are skipped.

        ``files`` maps posix paths to files already loaded under the
        same ``suppressions`` mode (a lint run's reports): those are not
        parsed again.
        """
        if suppressions not in ("all", "line"):
            raise ValueError(f"unknown suppressions mode: {suppressions!r}")
        modules: Dict[str, ModuleRecord] = {}
        failures: List[Finding] = []
        skipped: List[str] = []
        for file_path in iter_python_files(paths):
            posix = file_path.as_posix()
            loaded = (files or {}).get(posix) or load_file(file_path, suppressions)
            info = loaded.info
            if (
                info is None
                and not loaded.file_suppressed
                and module_dotted_path(file_path)[0] is not None
            ):
                failures.extend(loaded.findings)  # the file does not parse
            elif info is None or info.module is None:
                skipped.append(posix)
            elif info.module not in modules:  # first spelling wins (paths are sorted)
                modules[info.module] = _build_record(info.module, info)
        return cls(modules, failures, skipped)

    @cached_property
    def call_graph(self) -> "CallGraph":
        """Every tier's call graph of this project."""
        from . import callgraph  # deferred: callgraph imports this module

        return callgraph.build_call_graph(self)

    @cached_property
    def workers(self) -> List["Worker"]:
        """Every tier's worker list of this project."""
        from . import workers as discovery  # deferred: it imports this module

        return discovery.find_workers(self)

    # ------------------------------------------------------------------
    def module_of(self, canonical: str) -> Optional[Tuple[str, List[str]]]:
        """Longest project-module prefix of a dotted name + remainder."""
        parts = canonical.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, parts[cut:]
        return None

    def resolve_symbol(
        self, canonical: str, _seen: Optional[Set[str]] = None
    ) -> Optional[Target]:
        """Resolve a canonical dotted name to a project symbol.

        Follows re-export chains (a package ``__init__`` importing a
        symbol from a submodule) with a cycle guard.  Names that leave
        the project (stdlib, third-party) resolve to ``None``.
        """
        seen = _seen if _seen is not None else set()
        if canonical in seen:
            return None
        seen.add(canonical)
        located = self.module_of(canonical)
        if located is None:
            return None
        module_name, rest = located
        record = self.modules[module_name]
        if not rest:
            return ("module", record)
        head = rest[0]
        if len(rest) == 1:
            if head in record.functions:
                return ("function", record.functions[head])
            if head in record.classes:
                return ("class", record.classes[head])
        elif len(rest) == 2:
            qualname = f"{head}.{rest[1]}"
            if qualname in record.functions:
                return ("function", record.functions[qualname])
        # Re-export: the name is an import alias inside ``module_name``.
        alias_target = record.info.imports.aliases.get(head)
        if alias_target is not None:
            tail = rest[1:]
            next_name = ".".join([alias_target] + tail)
            return self.resolve_symbol(next_name, seen)
        return None

    def resolve_local(
        self, record: ModuleRecord, canonical: str
    ) -> Optional[Target]:
        """Resolve a canonical name as seen *from inside* ``record``.

        Names the import map left untouched are module-local: a bare
        ``_artifact_trial`` resolves to the sibling function, ``Pool.make``
        to the sibling classmethod.  Falls back to project-wide
        resolution for imported names.
        """
        parts = canonical.split(".")
        head = parts[0]
        if len(parts) == 1 and head in record.functions:
            return ("function", record.functions[head])
        if head in record.classes:
            if len(parts) == 1:
                return ("class", record.classes[head])
            if len(parts) == 2:
                qualname = f"{head}.{parts[1]}"
                if qualname in record.functions:
                    return ("function", record.functions[qualname])
        return self.resolve_symbol(canonical)

    def imported_modules(self, record: ModuleRecord) -> List[str]:
        """Project modules whose import executes when ``record`` loads.

        Derived from the import map's alias targets: importing a symbol
        from module N (or N itself, under any alias) runs N's module
        body.  Importing a submodule also runs every ancestor package's
        ``__init__``, so those are included too.
        """
        reached: Set[str] = set()
        for target in record.info.imports.aliases.values():
            located = self.module_of(target)
            if located is None:
                continue
            module_name = located[0]
            parts = module_name.split(".")
            for cut in range(1, len(parts) + 1):
                ancestor = ".".join(parts[:cut])
                if ancestor in self.modules and ancestor != record.name:
                    reached.add(ancestor)
        return sorted(reached)
