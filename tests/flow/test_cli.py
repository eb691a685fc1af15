"""``repro-flow`` CLI contract: exit codes, formats, the manifest gate."""

import json

from repro.flow import run_flow
from repro.flow.cli import main
from repro.flow.rules import build_flow_section
from repro.lint.manifest import MANIFEST_FILE, write_section

from .conftest import FIXTURES


class TestListRules:
    def test_catalogue_names_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RPL401",
            "RPL402",
            "RPL403",
            "RPL404",
            "RPL405",
        ):
            assert rule_id in out
        assert "sanction" in out


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([str(FIXTURES / "rpl401_good")]) == 0
        capsys.readouterr()

    def test_findings_exit_one(self, capsys):
        assert main([str(FIXTURES / "rpl402_bad")]) == 1
        out = capsys.readouterr().out
        assert "RPL402" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["--select", "RPL777", str(FIXTURES)]) == 2
        capsys.readouterr()

    def test_missing_path_exits_two(self, capsys):
        assert main([str(FIXTURES / "no_such_tree")]) == 2
        capsys.readouterr()

    def test_select_skips_other_passes(self, capsys):
        assert main(["--select", "RPL401", str(FIXTURES / "rpl402_bad")]) == 0
        capsys.readouterr()


class TestJsonFormat:
    def test_findings_serialize(self, capsys):
        assert main(["--format", "json", str(FIXTURES / "rpl405_bad")]) == 1
        payload = json.loads(capsys.readouterr().out)
        rule_ids = {finding["rule"] for finding in payload["findings"]}
        assert rule_ids == {"RPL405"}
        assert payload["summary"]["by_rule"]["RPL405"] == 2


class TestManifestGate:
    TREE = str((FIXTURES / "sanctioned").resolve())

    def test_write_then_check_roundtrips(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([self.TREE, "--write-manifest"]) == 0
        capsys.readouterr()
        assert main([self.TREE, "--check-manifest"]) == 0
        out = capsys.readouterr().out
        assert "is current" in out

    def test_drift_fails_the_gate_with_a_diff(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        payload = build_flow_section(run_flow([self.TREE]))
        payload["sanctioned"] = []
        write_section("flow", payload)
        assert main([self.TREE, "--check-manifest"]) == 1
        captured = capsys.readouterr()
        assert "manifest drift" in captured.err
        assert "RPL401" in captured.err

    def test_missing_manifest_fails_the_gate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert not (tmp_path / MANIFEST_FILE).exists()
        assert main([self.TREE, "--check-manifest"]) == 1
        capsys.readouterr()
