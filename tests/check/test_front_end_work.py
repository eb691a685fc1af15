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
from repro.lint import iter_python_files, rule_by_identifier
from repro.vec import run_vec

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
    "stage",
    [
        lambda paths: build_call_graph(Project.load(paths)),
        run_audit,
        run_vec,
        run_flow,
    ],
    ids=["call-graph", "audit", "vec", "flow"],
)
def test_stage_walks_a_small_multiple_of_the_module(
    engine_package, monkeypatch, stage
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
    assert visits[0] <= WALKS_PER_NODE * module_nodes, (
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
