"""The acceptance bar, machine-checked: the repo lints itself clean.

``repro-check --skip audit,vec,flow`` (lint over ``src benchmarks tests
examples``) must exit 0 on this tree —
every true positive the rules find gets fixed (not suppressed), and the
only standing directives are the documented fixture headers under
``tests/lint/fixtures`` and ``tests/audit/fixtures`` plus
reason-annotated line suppressions.

The whole-tree checks read the session's one lint run (``repo_lint``)
and audit report (``src_reports``); the command line still runs here.
"""

from repro.check import TOOLS
from repro.lint import lint_paths

from ..conftest import LINT_TARGETS as TARGETS
from ..conftest import REPO_ROOT


class TestRepoSelfLint:
    def test_tree_is_clean(self, repo_lint):
        report = repo_lint
        assert report.findings == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}" for f in report.findings
        )

    def test_cli_exits_zero_on_tree(self, capsys):
        (lint,) = [entry for name, entry, _base, _gated in TOOLS if name == "lint"]
        assert lint([str(target) for target in TARGETS]) == 0
        capsys.readouterr()  # swallow the report

    def test_only_fixture_files_are_file_suppressed(self, repo_lint):
        skipped = [f.path for f in repo_lint.files if f.file_suppressed]
        assert skipped, "the bad fixtures must exist and be skipped"
        assert all(
            "tests/lint/fixtures/" in path or "tests/audit/fixtures/" in path
            for path in skipped
        )

    def test_lint_covers_the_whole_tree(self, repo_lint):
        linted = {f.path for f in repo_lint.files}
        assert any(path.endswith("repro/netsim/graph.py") for path in linted)
        assert any(path.endswith("repro/parallel/trials.py") for path in linted)
        assert any("benchmarks/" in path for path in linted)
        assert any("examples/" in path for path in linted)
        assert len(linted) > 150

    def test_graph_engine_obeys_the_determinism_rules(self):
        """The CSR engine is the hot simulation kernel — any global RNG,
        set-iteration, or wall-clock habit there would silently poison
        every seed-equivalence guarantee — so pin that it passes every
        rule without a file suppression."""
        graph_path = REPO_ROOT / "src" / "repro" / "netsim" / "graph.py"
        report = lint_paths([graph_path])
        assert report.findings == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}" for f in report.findings
        )
        (entry,) = report.files
        assert not entry.file_suppressed

    def test_graph_engine_passes_the_whole_program_audit(self, src_reports):
        """The CSR engine must also be clean under the RPL2xx
        whole-program audit (effect and seed-flow analysis), not just
        the per-file rules — its arrays flow into every cached trial."""
        offenders = [
            f
            for f in src_reports["audit"].findings
            if "netsim/graph" in f.location()
        ]
        assert offenders == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}" for f in offenders
        )

    def test_fault_layer_obeys_the_determinism_rules(self):
        """The fault-tolerance layer is process-juggling code — exactly
        where global RNG, module state, and wall-clock habits creep in —
        so pin that it passes every rule without a file suppression."""
        faults_path = REPO_ROOT / "src" / "repro" / "parallel" / "faults.py"
        report = lint_paths([faults_path])
        assert report.findings == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}" for f in report.findings
        )
        (entry,) = report.files
        assert not entry.file_suppressed
