"""Hot-path classification tests: roots, closure, inherited dispatch."""

from repro.audit.callgraph import ClassHierarchy, build_call_graph
from repro.audit.project import Project
from repro.vec import run_vec
from repro.vec.hot import HOT_MODULE_RE, hot_closure, hot_roots

from .conftest import FIXTURES, expected_findings


def _load(tree):
    return Project.load([FIXTURES / tree], suppressions="line")


class TestHotRoots:
    def test_entry_methods_in_netsim_modules_are_roots(self):
        project = _load("rpl311_bad")
        roots = {fn.fq.rsplit(".", 2)[-1] for fn in hot_roots(project)}
        assert roots == {"step", "run", "_communicate"}

    def test_roots_are_sorted_by_fq(self):
        project = _load("rpl311_bad")
        fqs = [fn.fq for fn in hot_roots(project)]
        assert fqs == sorted(fqs)

    def test_modules_outside_netsim_have_no_roots(self):
        project = _load("rpl301_bad")
        assert hot_roots(project) == []

    def test_module_regex_is_anchored_on_path_segments(self):
        assert HOT_MODULE_RE.search("repro.netsim.grid")
        assert HOT_MODULE_RE.search("netsim")
        assert not HOT_MODULE_RE.search("repro.netsimulator.grid")


class TestHotClosure:
    def test_closure_reaches_helpers_with_a_trace(self):
        project = _load("rpl311_good")
        graph = build_call_graph(project)
        hot = hot_closure(graph, hot_roots(project))
        shuffle = [fq for fq in hot if fq.endswith("._shuffle")]
        assert shuffle, sorted(hot)
        trace = hot[shuffle[0]]
        assert trace[0].endswith(".step")
        assert trace[-1] == shuffle[0]

    def test_cold_observation_helpers_stay_out(self):
        project = _load("rpl311_good")
        graph = build_call_graph(project)
        hot = hot_closure(graph, hot_roots(project))
        assert not any(fq.endswith(".observed_heights") for fq in hot)

    def test_module_bodies_are_never_hot(self):
        project = _load("rpl311_bad")
        graph = build_call_graph(project)
        hot = hot_closure(graph, hot_roots(project))
        assert not any(fq.endswith(".<module>") for fq in hot)


class TestInheritedDispatch:
    """The override fixture: step lives on the base, the kernel on the
    subclass — hotness must flow through the override edge."""

    def test_override_is_hot_and_its_loop_fires(self):
        tree = FIXTURES / "override"
        report = run_vec([tree], suppressions="line")
        got = {(f.line, f.rule_id) for f in report.findings}
        want = {(line, rid) for (_, line, rid) in expected_findings(tree)}
        assert got == want

    def test_with_inheritance_the_override_is_hot(self):
        project = _load("override")
        graph = build_call_graph(project)
        hot = hot_closure(graph, hot_roots(project))
        assert any(fq.endswith("VecEngine._kernel") for fq in hot)

    def test_vec_run_builds_one_class_hierarchy(self, monkeypatch):
        # The attribute-fact merge reads the hierarchy the call graph
        # already resolved dispatch with, not a second one.
        built = []
        real_init = ClassHierarchy.__init__

        def counting_init(self, project):
            built.append(project)
            real_init(self, project)

        monkeypatch.setattr(ClassHierarchy, "__init__", counting_init)
        run_vec([FIXTURES / "override"], suppressions="line")
        assert len(built) == 1
