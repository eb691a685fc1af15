"""CLI contract tests: exit codes, filtering, formats, suppressions."""

import json

import pytest

from repro.lint.cli import main

CLEAN = "def f(x):\n    return x + 1\n"
DIRTY = (
    "import time\n"
    "import random\n"
    "\n"
    "\n"
    "def f():\n"
    "    return random.random() + time.time()\n"
)
SUPPRESSED = (
    "import time\n"
    "\n"
    "\n"
    "def f():\n"
    "    return time.time()  # repro-lint: disable=RPL103  fixture reason\n"
)


@pytest.fixture()
def tree(tmp_path):
    """A throwaway lint target with one clean and one dirty module."""
    (tmp_path / "clean.py").write_text(CLEAN)
    (tmp_path / "dirty.py").write_text(DIRTY)
    return tmp_path


class TestExitCodes:
    def test_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_one_on_findings(self, tree, capsys):
        assert main([str(tree)]) == 1
        out = capsys.readouterr().out
        assert "RPL101" in out and "RPL103" in out

    def test_two_on_unknown_rule(self, tree, capsys):
        assert main([str(tree), "--select", "RPL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_zero_when_findings_suppressed(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(SUPPRESSED)
        assert main([str(tmp_path)]) == 0
        assert "1 finding(s) suppressed" in capsys.readouterr().out


class TestRuleFiltering:
    def test_select_runs_only_named_rules(self, tree, capsys):
        assert main([str(tree), "--select", "RPL103"]) == 1
        out = capsys.readouterr().out
        assert "RPL103" in out and "RPL101" not in out

    def test_select_accepts_rule_names(self, tree, capsys):
        assert main([str(tree), "--select", "wall-clock"]) == 1
        out = capsys.readouterr().out
        assert "RPL103" in out and "RPL101" not in out

    def test_ignore_drops_named_rules(self, tree, capsys):
        assert main([str(tree), "--ignore", "RPL101,RPL103"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_select_comma_list(self, tree, capsys):
        assert main([str(tree), "--select", "RPL101,RPL103"]) == 1
        out = capsys.readouterr().out
        assert "RPL101" in out and "RPL103" in out


class TestJsonFormat:
    def test_schema(self, tree, capsys):
        assert main([str(tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"version", "findings", "summary"}
        assert payload["version"] == 1
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "col", "rule", "name", "message"}
        summary = payload["summary"]
        assert set(summary) == {
            "files",
            "files_suppressed",
            "findings",
            "suppressed",
            "by_rule",
        }
        assert summary["findings"] == len(payload["findings"]) == 2
        assert summary["by_rule"] == {"RPL101": 1, "RPL103": 1}

    def test_clean_json_still_valid(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main([str(tmp_path), "-f", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_findings_sorted_and_deterministic(self, tree, capsys):
        main([str(tree), "--format", "json"])
        first = capsys.readouterr().out
        main([str(tree), "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        keys = [(f["path"], f["line"], f["col"], f["rule"]) for f in payload["findings"]]
        assert keys == sorted(keys)


class TestDefaultPaths:
    def test_default_path_list_pinned(self):
        """The production lint surface: source, benchmarks, tests, AND
        the runnable examples — scripts drift first when untested."""
        from repro.lint.cli import _DEFAULT_PATHS

        assert _DEFAULT_PATHS == ["src", "benchmarks", "tests", "examples"]

    def test_default_paths_all_exist(self):
        from pathlib import Path

        from repro.lint.cli import _DEFAULT_PATHS

        repo_root = Path(__file__).resolve().parents[2]
        for path in _DEFAULT_PATHS:
            assert (repo_root / path).is_dir(), path


class TestListRules:
    def test_lists_all_rules(self, capsys):
        from repro.lint import RULES

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.rule_id in out
            assert rule.name in out
        assert "disable=" in out  # suppression syntax documented

    def test_rpl900_pseudo_rule_surfaced(self, capsys):
        """RPL900 has no Rule class, but operators meet it the moment a
        file stops parsing — the catalogue must explain it."""
        main(["--list-rules"])
        out = capsys.readouterr().out
        assert "RPL900" in out
        assert "parse-error" in out
        assert "pseudo-rule" in out
        assert "not selectable" in out.lower() or "Not selectable" in out

    def test_listing_snapshot_is_stable(self, capsys):
        """The listing is part of the CLI contract: pin its shape (one
        id+summary line and one rationale line per rule, RPL900 entry,
        suppression footer) so help output cannot drift silently."""
        from repro.lint import RULES

        main(["--list-rules"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "repro-lint rules:"
        # one (header, rationale) pair per rule + the RPL900 pair.
        body = lines[1:-1]
        assert len(body) == 2 * (len(RULES) + 1)
        ids = [line.split()[0] for line in body[::2]]
        assert ids == [rule.rule_id for rule in RULES] + ["RPL900"]
        assert lines[-1].startswith("suppress a finding with")
