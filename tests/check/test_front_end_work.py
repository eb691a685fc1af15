"""Work-count guard: the analysis tiers stay linear in module size.

Every tier reaches a function's syntax tree through the ``def`` node the
project index stored for it.  Re-finding that node by walking the module
per function costs O(functions x module) per module; a wall-clock budget
over the repo's small modules did not notice.  Counting the nodes
``ast.walk`` yields over one generated module with a few hundred
functions does: linear work is a small multiple of the module's node
count, the quadratic search is a hundred times more.
"""

import ast

import pytest

from repro.audit import Project, build_call_graph, run_audit
from repro.flow import run_flow
from repro.vec import run_vec

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
