"""The acceptance bar: the caching layer passes its own flow analysis.

``repro-check --skip lint,audit,vec --check-manifests`` must exit 0 on
this tree — every result-influencing parameter of every cache boundary
is either key material or carries a reasoned line sanction, every spec
field enters the digest, and the ``flow`` section of the committed
``ANALYSIS_MANIFEST.json`` matches what the analyzer derives from
source.

The mutation self-check proves the analyzer earns its keep: keying
the artifact cache on ``fast`` alone while the artifacts still get the
``engine`` override (the stale-result bug the engine key once fixed)
must make RPL401 fire naming ``engine``.
"""

import shutil

from repro.flow import run_flow
from repro.flow.rules import build_flow_section
from repro.lint.manifest import MANIFEST_FILE, diff_section

from .conftest import REPO_ROOT

EXPERIMENTS = REPO_ROOT / "src" / "repro" / "experiments" / "__init__.py"
#: Every cache call of ``run_artifacts``, and the same call keyed on
#: ``fast`` alone.  The artifacts' run arguments stay the full config.
KEY_CONFIG_CALLS = {
    "cache.get(experiment_id, config, seed)": (
        'cache.get(experiment_id, {"fast": bool(fast)}, seed)'
    ),
    "cache.discard(experiment_id, config, seed)": (
        'cache.discard(experiment_id, {"fast": bool(fast)}, seed)'
    ),
    "cache.put(trial.experiment_id, config, trial.seed,": (
        'cache.put(trial.experiment_id, {"fast": bool(fast)}, trial.seed,'
    ),
}


class TestRepoSelfFlow:
    def test_source_tree_is_clean(self, src_reports):
        report = src_reports["flow"]
        assert report.findings == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}"
            for f in report.findings
        )

    def test_committed_manifest_is_current(self, src_reports):
        report = src_reports["flow"]
        drift = diff_section(
            "flow", build_flow_section(report), REPO_ROOT / MANIFEST_FILE
        )
        assert drift is None, drift

    def test_every_suppression_is_a_reviewed_boundary_param(self, src_reports):
        report = src_reports["flow"]
        assert report.suppressed, "run_artifacts keeps reviewed sanctions"
        assert {f.rule_id for f in report.suppressed} == {"RPL401"}
        # jobs and policy on the two boundaries that run trials.
        assert len(report.suppressed) == 4
        for module in ("experiments/__init__.py", "sweeps/driver.py"):
            assert sum(f.path.endswith(module) for f in report.suppressed) == 2

    def test_run_experiment_boundary_account(self, src_reports):
        manifest = build_flow_section(src_reports["flow"])
        # run_experiment delegates to the batch, which does the keying.
        assert "repro.experiments.run_experiment" not in manifest["cache_boundaries"]
        boundary = manifest["cache_boundaries"][
            "repro.experiments.run_artifacts"
        ]
        for param in ("experiment_ids", "seed", "fast", "engine", "delay_model"):
            assert param in boundary["key_params"]
        assert boundary["sanctioned_params"] == ["jobs", "policy"]

    def test_run_sweep_boundary_account(self, src_reports):
        manifest = build_flow_section(src_reports["flow"])
        boundary = manifest["cache_boundaries"]["repro.sweeps.driver.run_sweep"]
        assert boundary["key_params"] == ["root_seed", "specs"]
        assert boundary["sanctioned_params"] == ["jobs", "policy"]

    def test_scenario_spec_digest_is_complete_by_construction(self, src_reports):
        manifest = build_flow_section(src_reports["flow"])
        spec = manifest["digest_classes"]["repro.scenarios.spec.ScenarioSpec"]
        assert spec["complete_by_construction"] is True
        assert "engine" in spec["fields"]
        assert "delay_model" in spec["fields"]


class TestMutationSelfCheck:
    """Re-introduce the engine-key bug in a scratch copy; RPL401 must fire."""

    def _scratch_copy(self, tmp_path):
        pkg = tmp_path / "expmut"
        pkg.mkdir()
        shutil.copy(EXPERIMENTS, pkg / "__init__.py")
        return pkg

    def test_unmutated_copy_is_clean(self, tmp_path):
        self._scratch_copy(tmp_path)
        report = run_flow([tmp_path])
        assert report.findings == [], "\n".join(
            f"{f.rule_id} {f.message}" for f in report.findings
        )

    def test_dropping_the_engine_key_fires_rpl401(self, tmp_path):
        pkg = self._scratch_copy(tmp_path)
        source = (pkg / "__init__.py").read_text(encoding="utf-8")
        for call, mutant in KEY_CONFIG_CALLS.items():
            assert call in source, f"{call} moved; update KEY_CONFIG_CALLS"
            source = source.replace(call, mutant)
        (pkg / "__init__.py").write_text(source, encoding="utf-8")
        report = run_flow([tmp_path])
        engine_findings = [
            f
            for f in report.findings
            if f.rule_id == "RPL401" and "'engine'" in f.message
        ]
        assert engine_findings, "dropping the engine key must fire RPL401"
        assert all(
            "run_artifacts" in f.message for f in engine_findings
        )
