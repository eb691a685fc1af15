"""Relative-import resolution in :class:`repro.lint.core.ImportMap`.

Historically the map only canonicalized absolute imports, so every
``from .helpers import jitter`` was invisible to canonical-name rules
and to the whole-program audit.  These tests pin the resolution for
level-1 and level-2 imports, ``from . import x as y``, and the
package-vs-module base difference.
"""

import ast

from repro.lint import ImportMap, module_dotted_path
from repro.lint.core import NodeIndex


def _aliases(source, module, is_package=False):
    index = NodeIndex(ast.parse(source))
    return ImportMap(index, module=module, is_package=is_package).aliases


class TestRelativeImports:
    def test_level_one_from_module(self):
        aliases = _aliases(
            "from .helpers import jitter\n", module="pkg.app"
        )
        assert aliases["jitter"] == "pkg.helpers.jitter"

    def test_level_one_from_package_init(self):
        # Inside pkg/__init__.py, ``.`` is the package itself.
        aliases = _aliases(
            "from .helpers import jitter\n", module="pkg", is_package=True
        )
        assert aliases["jitter"] == "pkg.helpers.jitter"

    def test_level_two_climbs_a_package(self):
        aliases = _aliases(
            "from ..core import Finding\n", module="pkg.sub.mod"
        )
        assert aliases["Finding"] == "pkg.core.Finding"

    def test_bare_dot_import_with_alias(self):
        aliases = _aliases(
            "from . import helpers as h\n", module="pkg.app"
        )
        assert aliases["h"] == "pkg.helpers"

    def test_alias_on_named_relative_import(self):
        aliases = _aliases(
            "from .engine import TrialEngine as Engine\n", module="pkg.app"
        )
        assert aliases["Engine"] == "pkg.engine.TrialEngine"

    def test_without_module_context_relative_imports_ignored(self):
        # No dotted path (file outside any package): nothing to resolve
        # against, so the import contributes no aliases rather than a
        # wrong guess.
        aliases = _aliases("from .helpers import jitter\n", module=None)
        assert "jitter" not in aliases

    def test_absolute_imports_unaffected(self):
        aliases = _aliases(
            "import numpy.random as npr\nfrom random import randint\n",
            module="pkg.app",
        )
        assert aliases["npr"] == "numpy.random"
        assert aliases["randint"] == "random.randint"


class TestModuleDottedPath:
    def test_walks_init_markers(self, tmp_path):
        pkg = tmp_path / "pkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("")
        assert module_dotted_path(pkg / "mod.py") == ("pkg.sub.mod", False)
        assert module_dotted_path(pkg / "__init__.py") == ("pkg.sub", True)

    def test_file_outside_any_package(self, tmp_path):
        script = tmp_path / "script.py"
        script.write_text("")
        assert module_dotted_path(script) == (None, False)

    def test_stops_at_first_gap(self, tmp_path):
        # tmp/outer/inner: only inner has __init__ — the dotted path
        # starts there; outer is not part of the package.
        inner = tmp_path / "outer" / "inner"
        inner.mkdir(parents=True)
        (inner / "__init__.py").write_text("")
        (inner / "mod.py").write_text("")
        assert module_dotted_path(inner / "mod.py") == ("inner.mod", False)


class TestRelativeResolutionEndToEnd:
    def test_call_through_relative_import_resolves_canonically(self):
        """What the whole-program audit consumes: a call through a
        relative import resolves to the owning module's dotted name."""
        from repro.lint.core import ModuleInfo

        source = (
            "from .sim import simulate\n"
            "\n"
            "\n"
            "def run():\n"
            "    return simulate(3)\n"
        )
        tree = ast.parse(source)
        index = NodeIndex(tree)
        info = ModuleInfo(
            path="pkg/pipeline.py",
            source=source,
            tree=tree,
            imports=ImportMap(index, module="pkg.pipeline"),
            index=index,
            module="pkg.pipeline",
        )
        call = next(n for n in ast.walk(tree) if isinstance(n, ast.Call))
        assert info.resolve(call.func) == "pkg.sim.simulate"
