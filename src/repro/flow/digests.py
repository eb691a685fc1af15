"""Digest-class discovery: which dataclasses feed canonical digests.

A *digest class* is a class exposing a ``digest`` method (the
``ScenarioSpec`` contract: ``digest()`` hashes ``canonical_json()``
which serializes ``to_dict()``).  RPL402 requires every declared field
to enter that path — a field missing from the serialization means two
specs differing only in that knob share a digest, which is exactly how
a cached sweep serves the wrong scenario's summary.

Completeness is judged over the digest *closure*: the set of own-class
methods reachable from ``digest`` via ``self.<method>()`` calls.  A
closure that enumerates fields dynamically — ``dataclasses.fields``,
``dataclasses.asdict``, or ``vars`` applied to ``self`` — is complete
by construction (new fields join the digest automatically; this is the
pattern the repo's ``ScenarioSpec.to_dict`` uses and the reason it
survived PR 9 without hand-maintenance).  Otherwise every annotated
field must be mentioned as ``self.<field>`` somewhere in the closure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Set

from ..audit.callgraph import function_body_walk
from ..audit.project import ClassNode, FunctionNode, ModuleRecord, Project

__all__ = ["DigestClass", "find_digest_classes"]

#: Calls that enumerate a dataclass's fields dynamically.
_DYNAMIC_ENUMERATORS = frozenset(
    {"dataclasses.fields", "dataclasses.asdict", "fields", "asdict", "vars"}
)


@dataclass
class DigestClass:
    """One digest-bearing class and its field-coverage account."""

    cls: ClassNode
    record: ModuleRecord
    #: annotated field -> declaration line.
    fields: Dict[str, int]
    #: own-class methods reachable from ``digest`` (including it).
    closure: List[FunctionNode]
    #: ``self.<attr>`` mentions anywhere in the closure.
    mentioned: Set[str]
    #: the closure enumerates fields dynamically (complete by construction).
    dynamic: bool

    def missing(self) -> List[str]:
        if self.dynamic:
            return []
        return sorted(f for f in self.fields if f not in self.mentioned)


def _annotated_fields(classdef: ast.ClassDef) -> Dict[str, int]:
    fields: Dict[str, int] = {}
    for item in classdef.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            annotation = ast.dump(item.annotation)
            if "ClassVar" in annotation:
                continue
            fields[item.target.id] = item.lineno
    return fields


def _digest_closure(
    record: ModuleRecord, cls: ClassNode
) -> List[FunctionNode]:
    start = record.functions.get(f"{cls.name}.digest")
    if start is None:
        return []
    closure: List[FunctionNode] = []
    queue = [start]
    seen: Set[str] = set()
    while queue:
        fn = queue.pop(0)
        if fn.qualname in seen:
            continue
        seen.add(fn.qualname)
        closure.append(fn)
        for node in function_body_walk(record, fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                sibling = record.functions.get(f"{cls.name}.{func.attr}")
                if sibling is not None:
                    queue.append(sibling)
    return closure


def find_digest_classes(project: Project) -> List[DigestClass]:
    """Every digest-bearing annotated class, deterministically ordered."""
    found: List[DigestClass] = []
    for name in sorted(project.modules):
        record = project.modules[name]
        for cls_name in sorted(record.classes):
            cls = record.classes[cls_name]
            if f"{cls.name}.digest" not in record.functions:
                continue
            fields = _annotated_fields(cls.node)
            if not fields:
                continue  # not dataclass-shaped; nothing to enumerate
            closure = _digest_closure(record, cls)
            mentioned: Set[str] = set()
            dynamic = False
            for fn in closure:
                for node in function_body_walk(record, fn):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        mentioned.add(node.attr)
                    elif isinstance(node, ast.Call):
                        canonical = record.info.resolve(node.func)
                        if canonical in _DYNAMIC_ENUMERATORS and any(
                            isinstance(arg, ast.Name) and arg.id == "self"
                            for arg in node.args
                        ):
                            dynamic = True
            found.append(
                DigestClass(
                    cls=cls,
                    record=record,
                    fields=fields,
                    closure=closure,
                    mentioned=mentioned,
                    dynamic=dynamic,
                )
            )
    return found
