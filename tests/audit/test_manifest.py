"""The audit manifest section: determinism, shape, and churn resistance.

Drift detection for every tier's section lives in
``tests/check/test_manifest.py``.
"""

import json

from repro.audit import run_audit
from repro.audit.rules import build_audit_section
from repro.lint.manifest import MANIFEST_FILE, diff_section, render_manifest

from ..flow.conftest import FIXTURES as FLOW_FIXTURES
from .conftest import FIXTURES

#: A clean tree with one entry worker.
ENTRY_TREE = FLOW_FIXTURES / "rpl403_good"


def _section(tree):
    return build_audit_section(run_audit([tree], suppressions="line"))


class TestDeterminism:
    def test_two_builds_render_identically(self):
        tree = ENTRY_TREE
        first = render_manifest(_section(tree))
        second = render_manifest(_section(tree))
        assert first == second

    def test_rendered_form_is_sorted_json_with_trailing_newline(self):
        manifest = _section(ENTRY_TREE)
        rendered = render_manifest(manifest)
        assert rendered.endswith("\n")
        assert rendered == json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    def test_effect_entries_carry_no_line_numbers(self):
        """Line numbers would churn the committed manifest on every
        pure-motion refactor; entries pin (kind, site, sanctioned)."""
        manifest = _section(FIXTURES / "rpl201_bad")
        worker = manifest["workers"]["rpl201_bad.app._trial"]
        (effect,) = worker["effects"]
        assert set(effect) == {"kind", "site", "sanctioned"}
        assert effect["kind"] == "global-rng"
        assert effect["site"] == "rpl201_bad.helpers.jitter"


class TestShape:
    def test_workers_and_artifacts_sections(self):
        manifest = _section(ENTRY_TREE)
        assert manifest["artifacts"] == ["table"]
        worker = manifest["workers"]["rpl403_good.experiments.run_table"]
        assert worker["role"] == "entry"
        assert worker["artifact"] == "table"
        # Closure lists stay in memory; the ledger keeps only what the
        # rules decide on.
        assert set(worker) == {"role", "artifact", "dispatched_from", "effects"}


class TestCommittedManifest:
    def test_committed_manifest_is_current(self, src_reports):
        """CI's contract: the audit section matches the source tree."""
        section = build_audit_section(src_reports["audit"])
        assert diff_section("audit", section) is None

    def test_committed_manifest_covers_all_artifacts(self):
        with open(MANIFEST_FILE, encoding="utf-8") as handle:
            committed = json.load(handle)["audit"]
        assert len(committed["artifacts"]) == 13
        entry_workers = [
            w for w in committed["workers"].values() if w["role"] == "entry"
        ]
        assert len(entry_workers) == 13
