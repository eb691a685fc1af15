"""The vec manifest section: payload and determinism.

Drift detection for every tier's section lives in
``tests/check/test_manifest.py``.
"""

from repro.lint.manifest import render_manifest
from repro.vec import run_vec
from repro.vec.rules import build_vec_section

from .conftest import FIXTURES


def _sanctioned_report():
    return run_vec([FIXTURES / "sanctioned"])


class TestBuildManifest:
    def test_envelope_shape(self):
        manifest = build_vec_section(_sanctioned_report())
        assert set(manifest) == {
            "hot_roots",
            "hot_functions",
            "sanctioned_loops",
        }

    def test_sanctioned_loop_lands_on_the_ledger(self):
        manifest = build_vec_section(_sanctioned_report())
        (entry,) = manifest["sanctioned_loops"]
        assert entry["rule"] == "RPL311"
        assert entry["function"].endswith("Engine.step")
        assert "cells" in entry["detail"]

    def test_hot_surface_is_recorded_sorted(self):
        manifest = build_vec_section(_sanctioned_report())
        assert manifest["hot_roots"] == sorted(manifest["hot_roots"])
        assert manifest["hot_functions"] == sorted(
            manifest["hot_functions"]
        )
        assert any(
            fq.endswith("Engine.step") for fq in manifest["hot_roots"]
        )

    def test_rebuild_is_deterministic(self):
        first = render_manifest(build_vec_section(_sanctioned_report()))
        second = render_manifest(build_vec_section(_sanctioned_report()))
        assert first == second

