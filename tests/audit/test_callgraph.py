"""Call-graph construction: edges, class closure, import-time deps."""

from repro.audit import MODULE_BODY, Project, build_call_graph


def _callees(graph, fq):
    return {site.callee for site in graph.callees(fq)}


class TestEdges:
    def test_direct_cross_module_call(self, make_package):
        root = make_package(
            "pkg",
            {
                "a.py": "def leaf():\n    return 1\n",
                "b.py": (
                    "from .a import leaf\n"
                    "\n"
                    "\n"
                    "def caller():\n"
                    "    return leaf()\n"
                ),
            },
        )
        graph = build_call_graph(Project.load([root]))
        assert "pkg.a.leaf" in _callees(graph, "pkg.b.caller")

    def test_class_instantiation_pulls_in_all_methods(self, make_package):
        root = make_package(
            "pkg",
            {
                "c.py": (
                    "class Widget:\n"
                    "    def __init__(self):\n"
                    "        self.n = 0\n"
                    "\n"
                    "    def used(self):\n"
                    "        return self.n\n"
                    "\n"
                    "    def unused(self):\n"
                    "        return -self.n\n"
                ),
                "b.py": (
                    "from .c import Widget\n"
                    "\n"
                    "\n"
                    "def build():\n"
                    "    return Widget()\n"
                ),
            },
        )
        graph = build_call_graph(Project.load([root]))
        callees = _callees(graph, "pkg.b.build")
        # The instance escapes static tracking the moment it is bound, so
        # every method is conservatively reachable — not just __init__.
        assert "pkg.c.Widget.__init__" in callees
        assert "pkg.c.Widget.used" in callees
        assert "pkg.c.Widget.unused" in callees

    def test_self_method_resolves_to_sibling(self, make_package):
        root = make_package(
            "pkg",
            {
                "c.py": (
                    "class Widget:\n"
                    "    def outer(self):\n"
                    "        return self.inner()\n"
                    "\n"
                    "    def inner(self):\n"
                    "        return 1\n"
                )
            },
        )
        graph = build_call_graph(Project.load([root]))
        assert "pkg.c.Widget.inner" in _callees(graph, "pkg.c.Widget.outer")

    def test_every_function_depends_on_its_module_body(self, make_package):
        root = make_package("pkg", {"m.py": "def f():\n    return 1\n"})
        graph = build_call_graph(Project.load([root]))
        assert f"pkg.m.{MODULE_BODY}" in _callees(graph, "pkg.m.f")

    def test_module_body_depends_on_imported_module_bodies(self, make_package):
        root = make_package(
            "pkg",
            {
                "a.py": "X = 1\n",
                "b.py": "from .a import X\n",
            },
        )
        graph = build_call_graph(Project.load([root]))
        assert f"pkg.a.{MODULE_BODY}" in _callees(graph, f"pkg.b.{MODULE_BODY}")

    def test_module_body_sees_class_body_but_not_method_bodies(self, make_package):
        root = make_package(
            "pkg",
            {
                "a.py": "def table():\n    return (1, 2)\n",
                "c.py": (
                    "from .a import table\n"
                    "\n"
                    "\n"
                    "class Holder:\n"
                    "    ROWS = table()\n"
                    "\n"
                    "    def late(self):\n"
                    "        return table()\n"
                ),
            },
        )
        graph = build_call_graph(Project.load([root]))
        # ROWS = table() runs at import; Holder.late() runs when called.
        assert "pkg.a.table" in _callees(graph, f"pkg.c.{MODULE_BODY}")
        assert "pkg.a.table" in _callees(graph, "pkg.c.Holder.late")

    def test_duplicate_call_sites_deduplicated(self, make_package):
        root = make_package(
            "pkg",
            {
                "m.py": (
                    "def leaf():\n"
                    "    return 1\n"
                    "\n"
                    "\n"
                    "def caller():\n"
                    "    return leaf() + leaf()\n"
                )
            },
        )
        graph = build_call_graph(Project.load([root]))
        sites = [
            s for s in graph.callees("pkg.m.caller") if s.callee == "pkg.m.leaf"
        ]
        assert len(sites) == 1


class TestDecoratedFunctions:
    def test_decorated_function_keeps_its_edges(self, make_package):
        root = make_package(
            "pkg",
            {
                "deco.py": (
                    "import functools\n"
                    "\n"
                    "\n"
                    "def logged(fn):\n"
                    "    @functools.wraps(fn)\n"
                    "    def wrapper(*args, **kwargs):\n"
                    "        return fn(*args, **kwargs)\n"
                    "    return wrapper\n"
                ),
                "work.py": (
                    "from .deco import logged\n"
                    "\n"
                    "\n"
                    "def kernel():\n"
                    "    return 1\n"
                    "\n"
                    "\n"
                    "@logged\n"
                    "def hot():\n"
                    "    return kernel()\n"
                ),
            },
        )
        graph = build_call_graph(Project.load([root]))
        # The decorator neither hides the function nor severs its body's
        # call edges: hot still calls kernel under its own name.
        assert "pkg.work.kernel" in _callees(graph, "pkg.work.hot")

    def test_decorator_factory_call_is_charged_to_the_function(
        self, make_package
    ):
        root = make_package(
            "pkg",
            {
                "deco.py": (
                    "def logged(tag):\n"
                    "    def deco(fn):\n"
                    "        return fn\n"
                    "    return deco\n"
                ),
                "work.py": (
                    "from .deco import logged\n"
                    "\n"
                    "\n"
                    "@logged(\"hot\")\n"
                    "def hot():\n"
                    "    return 1\n"
                ),
            },
        )
        graph = build_call_graph(Project.load([root]))
        # The factory call sits inside the FunctionDef's source extent,
        # so the collector attributes it to hot itself — conservative
        # for reachability (anything the decorator touches is charged
        # to the function it wraps), and pinned here so a collector
        # refactor cannot silently drop the edge.
        assert "pkg.deco.logged" in _callees(graph, "pkg.work.hot")


class TestLambdaKernels:
    def test_lambda_argument_does_not_hide_the_named_callee(
        self, make_package
    ):
        root = make_package(
            "pkg",
            {
                "engine.py": (
                    "def apply(fn, values):\n"
                    "    return [fn(v) for v in values]\n"
                ),
                "driver.py": (
                    "from .engine import apply\n"
                    "\n"
                    "\n"
                    "def scale(v):\n"
                    "    return 2 * v\n"
                    "\n"
                    "\n"
                    "def run(values):\n"
                    "    return apply(lambda v: scale(v), values)\n"
                ),
            },
        )
        graph = build_call_graph(Project.load([root]))
        callees = _callees(graph, "pkg.driver.run")
        assert "pkg.engine.apply" in callees
        # The lambda body is part of run's own code: the call to scale
        # inside it must be attributed to run, not lost.
        assert "pkg.driver.scale" in callees


class TestInheritanceResolution:
    """Method resolution through engine-style base/subclass splits."""

    ENGINE_TREE = {
        "base.py": (
            "class _EngineBase:\n"
            "    def step(self):\n"
            "        return self._kernel()\n"
            "\n"
            "    def _kernel(self):\n"
            "        raise NotImplementedError\n"
        ),
        "vec.py": (
            "from .base import _EngineBase\n"
            "\n"
            "\n"
            "class VecEngine(_EngineBase):\n"
            "    def _kernel(self):\n"
            "        return self._mix()\n"
            "\n"
            "    def _mix(self):\n"
            "        return 42\n"
        ),
    }

    def test_inheritance_graph_adds_override_edges(self, make_package):
        root = make_package("pkg", dict(self.ENGINE_TREE))
        graph = build_call_graph(Project.load([root]))
        callees = _callees(graph, "pkg.base._EngineBase.step")
        assert "pkg.base._EngineBase._kernel" in callees
        assert "pkg.vec.VecEngine._kernel" in callees
        # And the override's own helper is reachable one hop further.
        assert "pkg.vec.VecEngine._mix" in _callees(
            graph, "pkg.vec.VecEngine._kernel"
        )

    def test_inherited_method_resolves_upward(self, make_package):
        root = make_package(
            "pkg",
            {
                "base.py": (
                    "class _EngineBase:\n"
                    "    def _shared(self):\n"
                    "        return 0\n"
                ),
                "vec.py": (
                    "from .base import _EngineBase\n"
                    "\n"
                    "\n"
                    "class VecEngine(_EngineBase):\n"
                    "    def step(self):\n"
                    "        return self._shared()\n"
                ),
            },
        )
        graph = build_call_graph(Project.load([root]))
        # VecEngine has no _shared of its own: the call must resolve to
        # the inherited definition on the base.
        assert "pkg.base._EngineBase._shared" in _callees(
            graph, "pkg.vec.VecEngine.step"
        )

    def test_class_hierarchy_api(self, make_package):
        from repro.audit import ClassHierarchy

        root = make_package("pkg", dict(self.ENGINE_TREE))
        project = Project.load([root])
        hierarchy = ClassHierarchy(project)
        assert hierarchy.ancestors("pkg.vec.VecEngine") == [
            "pkg.vec.VecEngine",
            "pkg.base._EngineBase",
        ]
        assert hierarchy.descendants("pkg.base._EngineBase") == [
            "pkg.vec.VecEngine"
        ]
        # step is not defined on VecEngine: resolution walks upward
        # to the nearest ancestor definition.
        resolved = hierarchy.resolve_method("pkg.vec.VecEngine", "step")
        assert resolved is not None
        assert resolved.fq == "pkg.base._EngineBase.step"
        # _kernel is overridden: the subclass definition wins.
        kernel = hierarchy.resolve_method("pkg.vec.VecEngine", "_kernel")
        assert kernel is not None and kernel.fq == "pkg.vec.VecEngine._kernel"
        # A method defined nowhere on the chain resolves to nothing.
        assert hierarchy.resolve_method("pkg.vec.VecEngine", "missing") is None
