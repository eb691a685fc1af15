"""The acceptance bar: the kernel layer passes its own vec analysis.

``repro-vec src --check-manifest`` must exit 0 on this tree — every
pass-1 dtype finding gets fixed (never suppressed), every standing
scalar loop in hot code carries a reasoned sanction, and the ``vec``
section of the committed ``ANALYSIS_MANIFEST.json`` matches what the
analyzer derives from source.
"""

from repro.lint.manifest import MANIFEST_FILE, diff_section
from repro.vec.rules import LOOP_RULE_IDS, build_vec_section

from .conftest import REPO_ROOT


class TestRepoSelfVec:
    def test_source_tree_is_clean(self, src_reports):
        report = src_reports["vec"]
        assert report.findings == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}"
            for f in report.findings
        )

    def test_committed_manifest_is_current(self, src_reports):
        report = src_reports["vec"]
        drift = diff_section(
            "vec", build_vec_section(report), REPO_ROOT / MANIFEST_FILE
        )
        assert drift is None, drift

    def test_every_suppression_is_a_sanctioned_hot_loop(self, src_reports):
        report = src_reports["vec"]
        assert report.suppressed, "the engines keep reviewed scalar loops"
        assert {f.rule_id for f in report.suppressed} <= LOOP_RULE_IDS

    def test_hot_surface_covers_both_engines(self, src_reports):
        manifest = build_vec_section(src_reports["vec"])
        hot = manifest["hot_functions"]
        assert any("netsim.grid" in fq and ".step" in fq for fq in hot)
        assert any(
            "GraphSimulatorVec._communicate" in fq for fq in hot
        )
        assert any("GraphSimulatorVec._comm_adopt" in fq for fq in hot)

    def test_pass1_never_needs_suppressing(self, src_reports):
        """Dtype findings are bugs, not style: none may be sanctioned."""
        report = src_reports["vec"]
        assert not any(
            f.rule_id in ("RPL301", "RPL302", "RPL303", "RPL304")
            for f in report.suppressed
        )
