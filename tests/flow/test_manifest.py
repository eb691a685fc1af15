"""The flow manifest section: payload and determinism.

Drift detection for every tier's section lives in
``tests/check/test_manifest.py``.
"""

from repro.lint.manifest import render_manifest
from repro.flow import run_flow
from repro.flow.rules import build_flow_section

from .conftest import FIXTURES


def _sanctioned_report():
    return run_flow([FIXTURES / "sanctioned"])


class TestBuildManifest:
    def test_envelope_shape(self):
        manifest = build_flow_section(_sanctioned_report())
        assert set(manifest) == {
            "cache_boundaries",
            "digest_classes",
            "sanctioned",
        }

    def test_sanctioned_param_lands_on_the_ledger(self):
        manifest = build_flow_section(_sanctioned_report())
        (entry,) = manifest["sanctioned"]
        assert entry["rule"] == "RPL401"
        assert entry["function"].endswith("run_model")
        assert "'jobs'" in entry["detail"]

    def test_boundary_account_is_complete(self):
        manifest = build_flow_section(_sanctioned_report())
        (fq,) = manifest["cache_boundaries"]
        assert fq.endswith("run_model")
        boundary = manifest["cache_boundaries"][fq]
        assert boundary["key_params"] == ["experiment_id", "seed"]
        assert boundary["sanctioned_params"] == ["jobs"]
        assert "jobs" in boundary["influencing"]
        assert boundary["influencing"]["jobs"] == ["return"]

    def test_rebuild_is_deterministic(self):
        first = render_manifest(build_flow_section(_sanctioned_report()))
        second = render_manifest(build_flow_section(_sanctioned_report()))
        assert first == second

