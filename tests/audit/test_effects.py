"""Direct-effect detection and transitive closure propagation."""

from repro.audit import Project, build_call_graph, direct_effects, effect_closure


def _kinds(project, fq):
    return {e.kind for e in direct_effects(project).get(fq, [])}


class TestDirectEffects:
    def test_lint_rules_map_to_effect_kinds(self, make_package):
        root = make_package(
            "pkg",
            {
                "m.py": (
                    "# repro-lint: disable-file audit test fixture\n"
                    "import random\n"
                    "import time\n"
                    "\n"
                    "\n"
                    "def rng_leaf():\n"
                    "    return random.random()\n"
                    "\n"
                    "\n"
                    "def clock_leaf():\n"
                    "    return time.time()\n"
                )
            },
        )
        project = Project.load([root], suppressions="line")
        assert _kinds(project, "pkg.m.rng_leaf") == {"global-rng"}
        assert _kinds(project, "pkg.m.clock_leaf") == {"wall-clock"}

    def test_filesystem_and_env_detector(self, make_package):
        root = make_package(
            "pkg",
            {
                "m.py": (
                    "import os\n"
                    "from pathlib import Path\n"
                    "\n"
                    "\n"
                    "def reads(path):\n"
                    "    return Path(path).read_text()\n"
                    "\n"
                    "\n"
                    "def opens(path):\n"
                    "    with open(path) as handle:\n"
                    "        return handle.read()\n"
                    "\n"
                    "\n"
                    "def environment():\n"
                    "    return os.environ['HOME']\n"
                )
            },
        )
        project = Project.load([root], suppressions="line")
        assert _kinds(project, "pkg.m.reads") == {"filesystem"}
        assert _kinds(project, "pkg.m.opens") == {"filesystem"}
        assert _kinds(project, "pkg.m.environment") == {"env"}

    def test_cross_module_mutation_detected(self, make_package):
        root = make_package(
            "pkg",
            {
                "registry.py": "SHARED = {}\n",
                "writer.py": (
                    "from .registry import SHARED\n"
                    "\n"
                    "\n"
                    "def record(key, value):\n"
                    "    SHARED[key] = value\n"
                ),
            },
        )
        project = Project.load([root], suppressions="line")
        effects = direct_effects(project)["pkg.writer.record"]
        (effect,) = effects
        assert effect.kind == "global-state"
        assert "pkg.registry.SHARED" in effect.detail

    def test_local_shadow_of_imported_mutable_is_clean(self, make_package):
        root = make_package(
            "pkg",
            {
                "registry.py": "SHARED = {}\n",
                "writer.py": (
                    "def record(key, value):\n"
                    "    SHARED = {}\n"
                    "    SHARED[key] = value\n"
                    "    return SHARED\n"
                ),
            },
        )
        project = Project.load([root], suppressions="line")
        assert "pkg.writer.record" not in direct_effects(project)


class TestClosure:
    def test_effects_propagate_with_traces(self, make_package):
        root = make_package(
            "pkg",
            {
                "leaf.py": (
                    "# repro-lint: disable-file audit test fixture\n"
                    "import random\n"
                    "\n"
                    "\n"
                    "def draw():\n"
                    "    return random.random()\n"
                ),
                "mid.py": (
                    "from .leaf import draw\n"
                    "\n"
                    "\n"
                    "def sample():\n"
                    "    return draw()\n"
                ),
                "top.py": (
                    "from .mid import sample\n"
                    "\n"
                    "\n"
                    "def entry():\n"
                    "    return sample()\n"
                ),
            },
        )
        project = Project.load([root], suppressions="line")
        graph = build_call_graph(project)
        closure = effect_closure(graph, direct_effects(project), "pkg.top.entry")
        (traced,) = [
            t for t in closure.effects if t.effect.kind == "global-rng"
        ]
        assert traced.trace == (
            "pkg.top.entry",
            "pkg.mid.sample",
            "pkg.leaf.draw",
        )
        assert {"pkg", "pkg.leaf", "pkg.mid", "pkg.top"} <= set(closure.modules)

    def test_closure_of_pure_worker_is_effect_free(self, make_package):
        root = make_package(
            "pkg",
            {
                "h.py": (
                    "def helper(x):\n"
                    "    return x + 1\n"
                ),
                "m.py": (
                    "from .h import helper\n"
                    "\n"
                    "\n"
                    "def entry(x):\n"
                    "    return helper(x)\n"
                ),
            },
        )
        project = Project.load([root])
        graph = build_call_graph(project)
        closure = effect_closure(graph, direct_effects(project), "pkg.m.entry")
        assert closure.effects == ()
        # The helper's module is reached only through the call.
        assert "pkg.h" in closure.modules
