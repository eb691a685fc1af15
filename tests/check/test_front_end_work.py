"""Work-count guards: what the analysis tiers do, counted rather than timed.

Every tier reaches a function's syntax tree through the ``def`` node the
project index stored for it.  Re-finding that node by walking the module
per function costs O(functions x module) per module; a wall-clock budget
over the repo's small modules did not notice.  Counting the nodes
``ast.walk`` yields over one generated module with a few hundred
functions does: linear work is a small multiple of the module's node
count, the quadratic search is a hundred times more.

``repro-check`` is one analysis pass: it loads the ``src`` project once,
builds its call graph and finds its workers once, and checks each
module with each per-file detector once, however many tiers read the
results.  Counting those calls over the real tree pins it.

The lint rules, the import map and the worker search read each module's
one :class:`NodeIndex` instead of walking it again.  The index must hold
exactly what those walks saw: each per-type list is ``ast.walk``
filtered to the type, in the same order, and each scope owns the nodes
the per-scope walk yielded — the scope's body, stopping at (but
yielding) every nested def, lambda and class.
"""

import ast
import functools
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.check
from repro.audit import Project, build_call_graph, find_workers, run_audit
from repro.flow import run_flow
from repro.lint import iter_python_files, lint_paths, rule_by_identifier
from repro.lint.core import SCOPE_TYPES, NodeIndex
from repro.vec import run_vec

from ..conftest import LINT_TARGETS

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The per-file detectors the audit's effect pass reads (RPL101-104).
EFFECT_RULES = ("RPL101", "RPL102", "RPL103", "RPL104")

FUNCTIONS = 240
CLASSES = 30

#: Nodes yielded by ``ast.walk`` per node of the module, per stage.
WALKS_PER_NODE = 12


def _engine_source():
    """Numpy-importing engine module: a call chain and a class chain."""
    lines = ["import numpy as np", "", ""]
    for i in range(FUNCTIONS):
        result = f"f{i - 1}(total, scale)" if i else "total"
        lines += [
            f"def f{i}(values, scale):",
            "    total = np.zeros(8)",
            "    for k in range(3):",
            "        total[k] = values[k] * scale",
            f"    return {result}",
            "",
            "",
        ]
    for i in range(CLASSES):
        base = f"(C{i - 1})" if i else ""
        lines += [
            f"class C{i}{base}:",
            "    def __init__(self, size):",
            "        self.buf = np.zeros(size)",
            "",
            "    def step(self):",
            f"        return self._kernel() + f{i}(self.buf, 2)",
            "",
            "    def _kernel(self):",
            "        return self.buf.sum()",
            "",
            "",
        ]
    return "\n".join(lines)


@pytest.fixture
def engine_package(tmp_path):
    root = tmp_path / "pkg"
    (root / "netsim").mkdir(parents=True)
    (root / "__init__.py").write_text("", encoding="utf-8")
    (root / "netsim" / "__init__.py").write_text("", encoding="utf-8")
    source = _engine_source()
    (root / "netsim" / "engine.py").write_text(source, encoding="utf-8")
    return root, sum(1 for _ in ast.walk(ast.parse(source)))


@pytest.mark.parametrize(
    "stage, walks_per_node",
    [
        (lambda paths: build_call_graph(Project.load(paths)), WALKS_PER_NODE),
        (run_audit, WALKS_PER_NODE),
        (run_vec, WALKS_PER_NODE),
        (run_flow, WALKS_PER_NODE),
        # The rules read the module's one node index: one walk, not one each.
        (lint_paths, 2),
    ],
    ids=["call-graph", "audit", "vec", "flow", "lint"],
)
def test_stage_walks_a_small_multiple_of_the_module(
    engine_package, monkeypatch, stage, walks_per_node
):
    root, module_nodes = engine_package
    visits = [0]
    real_walk = ast.walk

    def counting_walk(node):
        for child in real_walk(node):
            visits[0] += 1
            yield child

    monkeypatch.setattr(ast, "walk", counting_walk)
    stage([root])
    assert visits[0] <= walks_per_node * module_nodes, (
        f"{visits[0]} nodes walked for a {module_nodes}-node module"
    )


def _count_calls(monkeypatch, fn, name, counts):
    """Route every ``repro`` module's binding of ``fn`` through a counter."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counted)


def test_repro_check_is_one_analysis_pass(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    counts = Counter()
    _count_calls(monkeypatch, build_call_graph, "build_call_graph", counts)
    _count_calls(monkeypatch, find_workers, "find_workers", counts)
    load = Project.load.__func__

    def counted_load(cls, *args, **kwargs):
        counts["Project.load"] += 1
        return load(cls, *args, **kwargs)

    monkeypatch.setattr(Project, "load", classmethod(counted_load))
    checks = Counter()
    for rule_id in EFFECT_RULES:
        rule_cls = type(rule_by_identifier(rule_id))

        def counted_check(self, module, _check=rule_cls.check, _id=rule_id):
            checks[_id, module.path] += 1
            return _check(self, module)

        monkeypatch.setattr(rule_cls, "check", counted_check)

    assert repro.check.main(["--check-manifests"]) == 0
    capsys.readouterr()
    assert counts == {"Project.load": 1, "build_call_graph": 1, "find_workers": 1}
    src_modules = [path.as_posix() for path in iter_python_files(["src"])]
    for rule_id in EFFECT_RULES:
        per_module = {path: checks[rule_id, path] for path in src_modules}
        assert per_module == dict.fromkeys(src_modules, 1), rule_id


def walk_scope(nodes):
    """Reference scope walk: the body, not descending into nested scopes."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, SCOPE_TYPES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def scope_body(node):
    return [node.body] if isinstance(node, ast.Lambda) else node.body


@pytest.fixture(scope="module")
def indexed():
    """Every lint target, fixtures included, parsed and indexed."""
    pairs = []
    for path in iter_python_files(LINT_TARGETS):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        pairs.append((path, tree, NodeIndex(tree)))
    return pairs


def test_per_type_lists_are_the_filtered_walk(indexed):
    for path, tree, index in indexed:
        walked = list(ast.walk(tree))
        assert [id(node) for node in index.nodes] == [id(n) for n in walked], path
        for node_type, nodes in index.by_type.items():
            expected = [n for n in walked if type(n) is node_type]
            assert [id(n) for n in nodes] == [id(n) for n in expected], (
                path,
                node_type.__name__,
            )
        imports = index.of(ast.Import, ast.ImportFrom)
        expected = [n for n in walked if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert [id(n) for n in imports] == [id(n) for n in expected], path


def test_each_scope_owns_what_the_scope_walk_yields(indexed):
    for path, tree, index in indexed:
        assert index.scopes[0].node is tree and index.scopes[0].parent is None
        scope_nodes = [scope.node for scope in index.scopes[1:]]
        walked = [n for n in ast.walk(tree) if isinstance(n, SCOPE_TYPES)]
        assert [id(n) for n in scope_nodes] == [id(n) for n in walked], path
        for scope in index.scopes:
            owned = Counter(map(id, scope.nodes))
            reference = Counter(map(id, walk_scope(scope_body(scope.node))))
            assert owned == reference, (path, getattr(scope.node, "lineno", 0))


def test_parent_is_the_scope_owning_the_node():
    tree = ast.parse(
        "def outer():\n"
        "    def inner(key=lambda item: item):\n"
        "        return [lambda: 1]\n"
        "class Box:\n"
        "    def method(self):\n"
        "        pass\n"
    )
    index = NodeIndex(tree)
    scope = {
        (type(entry.node).__name__, entry.node.lineno): entry
        for entry in index.scopes[1:]
    }
    outer, inner = scope["FunctionDef", 1], scope["FunctionDef", 2]
    default, returned = scope["Lambda", 2], scope["Lambda", 3]
    assert outer.parent is index.scopes[0] and inner.parent is outer
    # A default belongs to no scope's nodes, so its lambda has no parent.
    assert default.parent is None and index.scope_of(default.node) is None
    assert returned.parent is inner and index.scope_of(returned.node) is inner
    assert scope["FunctionDef", 5].parent is scope["ClassDef", 4]
