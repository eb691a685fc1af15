"""The one analyzer manifest and the helpers every tier reads it through.

``repro-audit``, ``repro-vec`` and ``repro-flow`` each own one section
of ``ANALYSIS_MANIFEST.json`` and render, diff and write it through
``repro.lint.manifest`` — one implementation of the byte-exact
contract (sorted keys, two-space indent, trailing newline, unified
diff against the committed section) instead of three copies drifting
apart.
"""

import importlib.util
import json

from repro.lint.manifest import (
    MANIFEST_VERSION,
    diff_section,
    render_manifest,
    write_section,
)


class TestRenderManifest:
    def test_deterministic_canonical_json(self):
        payload = {"b": [2, 1], "a": {"z": 1, "y": 2}, "version": 1}
        rendered = render_manifest(payload)
        assert rendered == render_manifest(dict(reversed(list(payload.items()))))
        assert rendered.endswith("\n")
        assert rendered.index('"a"') < rendered.index('"b"')

    def test_round_trips_through_json(self):
        payload = {"version": 1, "entries": ["x", "y"]}
        assert json.loads(render_manifest(payload)) == payload


class TestDiffManifest:
    def test_matching_file_yields_none(self, tmp_path):
        target = tmp_path / "M.json"
        write_section("t", {"entries": ["x"]}, target)
        assert json.loads(target.read_text(encoding="utf-8")) == {
            "version": MANIFEST_VERSION,
            "t": {"entries": ["x"]},
        }
        assert diff_section("t", {"entries": ["x"]}, target) is None

    def test_drift_is_a_labeled_unified_diff(self, tmp_path):
        target = tmp_path / "M.json"
        write_section("t", {"entries": ["x"]}, target)
        drift = diff_section("t", {"entries": ["y"]}, target)
        assert drift is not None
        assert f"{target} [t] (committed)" in drift
        assert f"{target} [t] (derived from source)" in drift
        assert '-      "x"' in drift and '+      "y"' in drift

    def test_missing_file_diffs_against_empty(self, tmp_path):
        drift = diff_section("t", {"entries": []}, tmp_path / "absent.json")
        assert drift is not None
        assert "+{" in drift


class TestSharedAcrossTiers:
    def test_every_tier_uses_the_one_implementation(self):
        from repro.audit.cli import TIER as audit
        from repro.check import TOOLS
        from repro.flow.cli import TIER as flow
        from repro.vec.cli import TIER as vec

        tiers = (audit, vec, flow)
        gated = [name for name, _entry, _base, takes in TOOLS if takes]
        assert [tier.section for tier in tiers] == gated
        for tier in tiers:
            assert importlib.util.find_spec(f"repro.{tier.section}.manifest") is None
