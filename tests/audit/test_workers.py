"""Worker discovery over fixture trees and the real source tree."""

from repro.audit import Project, find_workers

from .conftest import FIXTURES


class TestFixtureDiscovery:
    def test_trial_worker_found_through_engine_dispatch(self):
        project = Project.load(
            [FIXTURES / "rpl201_bad"], suppressions="line"
        )
        workers = find_workers(project)
        assert [(w.fq, w.role) for w in workers] == [
            ("rpl201_bad.app._trial", "trial")
        ]

    def test_registry_entry_found_with_artifact(self):
        project = Project.load([FIXTURES / "rpl204_bad"], suppressions="line")
        workers = find_workers(project)
        assert [(w.fq, w.role, w.artifact) for w in workers] == [
            ("rpl204_bad.work.run", "entry", "t1")
        ]

    def test_keyword_fn_argument_also_counts(self, make_package):
        root = make_package(
            "pkg",
            {
                "engine.py": (
                    "class TrialEngine:\n"
                    "    def run(self, fn, trials):\n"
                    "        return [fn(t) for t in trials]\n"
                ),
                "app.py": (
                    "from .engine import TrialEngine\n"
                    "\n"
                    "\n"
                    "def _work(trial):\n"
                    "    return trial\n"
                    "\n"
                    "\n"
                    "def go(trials):\n"
                    "    engine = TrialEngine()\n"
                    "    return engine.run(fn=_work, trials=trials)\n"
                ),
            },
        )
        workers = find_workers(Project.load([root]))
        assert [w.fq for w in workers] == ["pkg.app._work"]


class TestRealTree:
    def test_all_thirteen_artifacts_covered(self, src_reports):
        workers = src_reports["audit"].context.workers
        artifacts = {w.artifact for w in workers if w.role == "entry"}
        assert artifacts == {
            "table1", "table2", "table3", "table4",
            "table5", "table6", "table7", "table8",
            "figure3", "figure4", "figure6", "figure7", "figure8",
        }

    def test_real_tree_is_clean(self, src_reports):
        """The acceptance bar: the audit exits 0 on the committed tree."""
        assert src_reports["audit"].findings == []
