"""The vec tier under ``repro-check``: exit codes, formats, the manifest
gate.  ``main`` is ``repro-check`` with every other tier skipped
(``repro.check.TOOLS``)."""

import json

from repro.check import TOOLS
from repro.lint.manifest import MANIFEST_FILE, write_section
from repro.vec import run_vec
from repro.vec.rules import build_vec_section

from .conftest import FIXTURES

main = next(entry for name, entry, _base, _g in TOOLS if name == "vec")


class TestListRules:
    def test_catalogue_names_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RPL301",
            "RPL302",
            "RPL303",
            "RPL304",
            "RPL311",
            "RPL312",
            "RPL313",
        ):
            assert rule_id in out
        assert "sanction" in out


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([str(FIXTURES / "rpl311_good")]) == 0
        capsys.readouterr()

    def test_findings_exit_one(self, capsys):
        assert main([str(FIXTURES / "rpl311_bad")]) == 1
        out = capsys.readouterr().out
        assert "RPL311" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["--select", "RPL777", str(FIXTURES)]) == 2
        capsys.readouterr()

    def test_missing_path_exits_two(self, capsys):
        assert main([str(FIXTURES / "no_such_tree")]) == 2
        capsys.readouterr()

    def test_select_skips_other_passes(self, capsys):
        assert main(["--select", "RPL301", str(FIXTURES / "rpl311_bad")]) == 0
        capsys.readouterr()


class TestJsonFormat:
    def test_findings_serialize(self, capsys):
        assert main(["--format", "json", str(FIXTURES / "rpl311_bad")]) == 1
        payload = json.loads(capsys.readouterr().out)["tools"]["vec"]["report"]
        rule_ids = {finding["rule"] for finding in payload["findings"]}
        assert rule_ids == {"RPL311"}
        assert payload["summary"]["by_rule"]["RPL311"] == 3


class TestManifestGate:
    TREE = str((FIXTURES / "sanctioned").resolve())

    def test_write_then_check_roundtrips(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([self.TREE, "--write-manifests"]) == 0
        capsys.readouterr()
        assert main([self.TREE, "--check-manifests"]) == 0
        out = capsys.readouterr().out
        assert "is current" in out

    def test_drift_fails_the_gate_with_a_diff(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        payload = build_vec_section(run_vec([self.TREE]))
        payload["sanctioned_loops"] = []
        write_section("vec", payload)
        assert main([self.TREE, "--check-manifests"]) == 1
        captured = capsys.readouterr()
        assert "manifest drift" in captured.err
        assert "RPL311" in captured.err

    def test_missing_manifest_fails_the_gate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert not (tmp_path / MANIFEST_FILE).exists()
        assert main([self.TREE, "--check-manifests"]) == 1
        capsys.readouterr()
