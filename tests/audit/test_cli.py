"""The audit tier under ``repro-check``: exit codes, formats, manifest
gating.  ``main`` is ``repro-check`` with every other tier skipped
(``repro.check.TOOLS``)."""

import json

import pytest

from repro.audit import AUDIT_RULES
from repro.check import TOOLS
from repro.lint.manifest import MANIFEST_FILE

from ..flow.conftest import FIXTURES as FLOW_FIXTURES

main, AUDIT_PATHS = next(
    (entry, base) for name, entry, base, _g in TOOLS if name == "audit"
)

#: Clean for the audit, with an entry worker: its section is not empty.
GOOD_TREE = str((FLOW_FIXTURES / "rpl403_good").resolve())


def _report(out):
    """The audit tier's report in ``repro-check``'s merged JSON document."""
    return json.loads(out)["tools"]["audit"]["report"]


@pytest.fixture
def bad_tree(make_package):
    """A dirty tree with no ``disable-file`` headers: unlike the
    committed fixtures (which hide from the repo-wide lint), this is
    what a *real* regression looks like to the production CLI run."""
    root = make_package(
        "dirty",
        {
            "engine.py": (
                "class TrialEngine:\n"
                "    def map(self, fn, trials):\n"
                "        return [fn(t) for t in trials]\n"
            ),
            "counters.py": "import itertools\n\nIDS = itertools.count()\n",
            "store.py": (
                "from .counters import IDS\n"
                "\n"
                "\n"
                "def next_id():\n"
                "    return next(IDS)\n"
            ),
            "app.py": (
                "from .engine import TrialEngine\n"
                "from .store import next_id\n"
                "\n"
                "\n"
                "def _trial(trial):\n"
                "    return (trial, next_id())\n"
                "\n"
                "\n"
                "def run_all(trials):\n"
                "    engine = TrialEngine()\n"
                "    return engine.run(_trial, trials).payloads\n"
            ),
        },
    )
    return str(root)


class TestExitCodes:
    def test_zero_on_clean_tree(self, capsys):
        assert main([GOOD_TREE]) == 0
        assert "clean" in capsys.readouterr().out

    def test_one_on_findings(self, bad_tree, capsys):
        assert main([bad_tree]) == 1
        assert "RPL203" in capsys.readouterr().out

    def test_two_on_unknown_rule(self, capsys):
        assert main([GOOD_TREE, "--select", "RPL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_select_can_silence_a_bad_tree(self, bad_tree, capsys):
        assert main([bad_tree, "--select", "RPL202"]) == 0
        capsys.readouterr()


class TestDefaults:
    def test_default_audit_root_is_src(self):
        """The production audit surface is the importable source tree;
        fixtures and scripts have no importable dotted path there."""
        assert AUDIT_PATHS == ["src"]

    def test_default_manifest_name_pinned(self):
        assert MANIFEST_FILE == "ANALYSIS_MANIFEST.json"


class TestJsonFormat:
    def test_same_envelope_as_repro_lint(self, bad_tree, capsys):
        assert main([bad_tree, "--format", "json"]) == 1
        payload = _report(capsys.readouterr().out)
        assert set(payload) == {"version", "findings", "summary"}
        for finding in payload["findings"]:
            assert set(finding) == {
                "path", "line", "col", "rule", "name", "message",
            }
        assert payload["summary"]["by_rule"] == {"RPL203": 1}

    def test_json_deterministic(self, bad_tree, capsys):
        main([bad_tree, "-f", "json"])
        first = capsys.readouterr().out
        main([bad_tree, "-f", "json"])
        second = capsys.readouterr().out
        assert first == second


class TestManifestFlow:
    def test_write_then_check_roundtrip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([GOOD_TREE, "--write-manifests"]) == 0
        assert (tmp_path / MANIFEST_FILE).exists()
        capsys.readouterr()
        assert main([GOOD_TREE, "--check-manifests"]) == 0
        assert "is current" in capsys.readouterr().out

    def test_check_fails_on_drift_with_diff(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / MANIFEST_FILE
        main([GOOD_TREE, "--write-manifests"])
        capsys.readouterr()
        stale = json.loads(manifest.read_text(encoding="utf-8"))
        stale["audit"]["artifacts"] = []
        manifest.write_text(json.dumps(stale, indent=2, sort_keys=True) + "\n")
        assert main([GOOD_TREE, "--check-manifests"]) == 1
        err = capsys.readouterr().err
        assert "manifest drift" in err and "--write-manifests" in err

    def test_check_fails_when_manifest_missing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([GOOD_TREE, "--check-manifests"]) == 1
        capsys.readouterr()

    def test_committed_manifest_passes_check(self, capsys):
        """The CI gate, exercised exactly as CI runs it."""
        assert main(["--check-manifests"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "is current" in out


class TestListRules:
    def test_lists_all_audit_rules_with_rationale(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in AUDIT_RULES:
            assert rule.rule_id in out
            assert rule.name in out
        assert "disable=" in out  # sanctioning syntax documented
        assert "manifest" in out
