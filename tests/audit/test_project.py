"""Project loading, dotted-path naming, and symbol resolution."""

import gc
import weakref

import pytest

from repro.audit import MODULE_BODY, Project
from repro.lint import lint_paths


class TestLoading:
    def test_modules_keyed_by_dotted_path(self, make_package):
        root = make_package("pkg", {"mod.py": "X = 1\n", "sub/leaf.py": "Y = 2\n"})
        project = Project.load([root])
        assert set(project.modules) == {"pkg", "pkg.mod", "pkg.sub", "pkg.sub.leaf"}

    def test_non_package_files_are_skipped(self, tmp_path):
        script = tmp_path / "script.py"
        script.write_text("X = 1\n", encoding="utf-8")
        project = Project.load([tmp_path])
        assert project.modules == {}
        assert [p.endswith("script.py") for p in project.skipped] == [True]

    def test_disable_file_excluded_under_all_kept_under_line(self, make_package):
        root = make_package(
            "pkg", {"fx.py": "# repro-lint: disable-file fixture\nX = 1\n"}
        )
        assert "pkg.fx" not in Project.load([root]).modules
        assert "pkg.fx" in Project.load([root], suppressions="line").modules

    def test_unknown_suppressions_mode_rejected(self, make_package):
        root = make_package("pkg", {})
        with pytest.raises(ValueError):
            Project.load([root], suppressions="none")

    def test_syntax_error_becomes_rpl900_parse_failure(self, make_package):
        root = make_package("pkg", {"broken.py": "def broken(:\n"})
        project = Project.load([root])
        assert "pkg.broken" not in project.modules
        (failure,) = project.parse_failures
        assert failure.rule_id == "RPL900"


    def test_unparseable_file_outside_a_package_is_skipped(self, tmp_path):
        (tmp_path / "script.py").write_text("def broken(:\n", encoding="utf-8")
        project = Project.load([tmp_path])
        assert project.parse_failures == []
        assert [p.endswith("script.py") for p in project.skipped] == [True]

    def test_files_a_lint_run_loaded_are_not_parsed_again(self, make_package):
        root = make_package("pkg", {"mod.py": "X = 1\n"})
        linted = lint_paths([root])
        files = {loaded.path: loaded for loaded in linted.files}
        project = Project.load([root], files=files)
        info = project.modules["pkg.mod"].info
        assert info is files[info.path].info


class TestDerivedGraphs:
    def test_call_graph_and_workers_are_built_once(self, make_package):
        project = Project.load([make_package("pkg", {"mod.py": "X = 1\n"})])
        assert project.call_graph is project.call_graph
        assert project.workers is project.workers

    def test_cached_graphs_leave_no_reference_cycle(self, make_package):
        """Dropping the project frees every parsed tree at once, without
        waiting for the cyclic collector."""
        source = "class A:\n    def f(self):\n        return 1\n"
        root = make_package("pkg", {"mod.py": source})
        project = Project.load([root])
        project.call_graph, project.workers
        alive = weakref.ref(project)
        gc.disable()
        try:
            del project
            assert alive() is None
        finally:
            gc.enable()


class TestSymbols:
    def test_functions_classes_and_module_body(self, make_package):
        root = make_package(
            "pkg",
            {
                "mod.py": (
                    "def f(a, b):\n"
                    "    return a + b\n"
                    "\n"
                    "\n"
                    "class C:\n"
                    "    def __init__(self, x):\n"
                    "        self.x = x\n"
                    "\n"
                    "    def m(self):\n"
                    "        return self.x\n"
                )
            },
        )
        record = Project.load([root]).modules["pkg.mod"]
        assert set(record.functions) == {MODULE_BODY, "f", "C.__init__", "C.m"}
        assert record.functions["f"].params == ("a", "b")
        assert record.classes["C"].init_params == ("x",)
        assert record.classes["C"].methods == ("C.__init__", "C.m")

    def test_dataclass_fields_are_the_constructor(self, make_package):
        root = make_package(
            "pkg",
            {
                "mod.py": (
                    "from dataclasses import dataclass\n"
                    "\n"
                    "\n"
                    "@dataclass\n"
                    "class Trial:\n"
                    "    seed: int\n"
                    "    index: int\n"
                )
            },
        )
        record = Project.load([root]).modules["pkg.mod"]
        assert record.classes["Trial"].init_params == ("seed", "index")

    def test_function_at_line_picks_innermost(self, make_package):
        root = make_package(
            "pkg",
            {
                "mod.py": (
                    "X = 1\n"
                    "\n"
                    "\n"
                    "def outer():\n"
                    "    def inner():\n"
                    "        return 2\n"
                    "    return inner\n"
                )
            },
        )
        record = Project.load([root]).modules["pkg.mod"]
        assert record.function_at_line(1).qualname == MODULE_BODY
        # Nested defs belong to their enclosing top-level unit.
        assert record.function_at_line(6).qualname == "outer"


class TestResolution:
    def test_resolve_follows_reexport_chain(self, make_package):
        root = make_package(
            "pkg",
            {
                "impl.py": "def work():\n    return 1\n",
                "api/__init__.py": "from ..impl import work\n",
            },
        )
        project = Project.load([root])
        kind, symbol = project.resolve_symbol("pkg.api.work")
        assert kind == "function"
        assert symbol.fq == "pkg.impl.work"

    def test_resolve_local_prefers_sibling_symbols(self, make_package):
        root = make_package(
            "pkg", {"mod.py": "def helper():\n    return 1\n"}
        )
        project = Project.load([root])
        record = project.modules["pkg.mod"]
        kind, symbol = project.resolve_local(record, "helper")
        assert (kind, symbol.fq) == ("function", "pkg.mod.helper")

    def test_names_outside_the_project_resolve_to_none(self, make_package):
        root = make_package("pkg", {"mod.py": "import os\n"})
        project = Project.load([root])
        assert project.resolve_symbol("os.path.join") is None

    def test_imported_modules_include_ancestor_packages(self, make_package):
        root = make_package(
            "pkg",
            {
                "sub/leaf.py": "def f():\n    return 1\n",
                "app.py": "from .sub.leaf import f\n",
            },
        )
        project = Project.load([root])
        record = project.modules["pkg.app"]
        assert project.imported_modules(record) == [
            "pkg",
            "pkg.sub",
            "pkg.sub.leaf",
        ]
