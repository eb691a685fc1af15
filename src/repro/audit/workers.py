"""Worker discovery: which functions must be pure.

Two dispatch surfaces make a function a *worker* — the units whose
purity the trial ensemble's statistics (and the result cache's
correctness) rest on:

- **trial workers**: the callable in the worker slot of
  ``TrialEngine.run`` — shipped to worker processes, re-executed on
  retry, expected to be a pure function of its
  :class:`~repro.parallel.trials.Trial`;
- **entry workers**: the per-artifact ``run`` callables registered in
  an experiment ``REGISTRY`` dict and dispatched through
  ``run_artifacts`` — their results are what the content-keyed
  :class:`~repro.parallel.cache.ResultCache` stores, so *their* effect
  closure is what the cache's code fingerprint must cover.

Both are found statically, with the dispatch matcher and method set
the per-file RPL105 rule uses
(:func:`~repro.lint.rules.pickling.engine_worker`), so the two tools
agree about what counts as an engine dispatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional

from ..lint.rules.base import module_assignments
from ..lint.rules.pickling import engine_worker
from .project import MODULE_BODY, FunctionNode, ModuleRecord, Project

__all__ = ["Worker", "find_workers"]

@dataclass(frozen=True)
class Worker:
    """One function the audit holds to the purity bar."""

    fq: str
    node: FunctionNode
    role: str  # ``"trial"`` or ``"entry"``
    artifact: Optional[str]  # registry key when known
    dispatch_module: str  # module containing the dispatch/registration
    dispatch_line: int


def _worker(
    project: Project,
    record: ModuleRecord,
    expr: ast.AST,
    role: str,
    artifact: Optional[str],
    line: int,
) -> Optional[Worker]:
    """The project function ``expr`` names inside ``record``, as a worker."""
    canonical = record.info.resolve(expr)
    target = None if canonical is None else project.resolve_local(record, canonical)
    if target is None or target[0] != "function" or target[1].qualname == MODULE_BODY:
        return None
    return Worker(target[1].fq, target[1], role, artifact, record.name, line)


def _find_trial_workers(project: Project) -> Iterator[Optional[Worker]]:
    for record in project.modules.values():
        for node in record.info.index.of(ast.Call):
            worker_expr = engine_worker(record.info, node)
            if worker_expr is not None:
                yield _worker(project, record, worker_expr, "trial", None, node.lineno)


def _find_registry_entries(project: Project) -> Iterator[Optional[Worker]]:
    for record in project.modules.values():
        for targets, value, _stmt in module_assignments(record.info.tree):
            if not isinstance(value, ast.Dict):
                continue
            if not any(t.id == "REGISTRY" for t in targets):
                continue
            for key, entry in zip(value.keys, value.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield _worker(project, record, entry, "entry", key.value, entry.lineno)


def find_workers(project: Project) -> List[Worker]:
    """All workers, entry workers first, deterministically ordered.

    Trial workers inherit the artifact id of an entry worker defined in
    the same module (the experiment-module convention), so the manifest
    can group each artifact's entry and trial workers together.  A
    function dispatched from several sites appears once.
    """
    entries = [w for w in _find_registry_entries(project) if w is not None]
    trials = [w for w in _find_trial_workers(project) if w is not None]
    artifact_by_module: Dict[str, str] = {}
    for entry in entries:
        if entry.artifact is not None:
            artifact_by_module.setdefault(entry.node.module, entry.artifact)
    seen: Dict[str, Worker] = {}
    for worker in entries:
        seen.setdefault(worker.fq, worker)
    for worker in trials:
        artifact = artifact_by_module.get(worker.node.module)
        seen.setdefault(worker.fq, replace(worker, artifact=artifact))
    return sorted(seen.values(), key=lambda w: (w.role != "entry", w.fq))
