"""``repro-check``: one command and one gate over all four analysis tiers.

That the one shared pass reports exactly what each tier run alone
reports is pinned in ``test_shared_pass.py``; what the pass loads and
derives, in ``test_front_end_work.py``; the front end each one-tier run
shares, in ``test_tier_cli.py``.
"""

import json
import re
from pathlib import Path

import pytest

import repro.check as check
from repro.check import main
from repro.lint.manifest import MANIFEST_FILE, MANIFEST_VERSION

from ..conftest import TIERS

REPO_ROOT = Path(__file__).resolve().parents[2]


#: A package only the audit faults: ``pipeline`` drops its seed (RPL202).
SEED_DROP = (
    "def simulate(steps, seed=0):\n"
    "    return steps + seed\n"
    "\n"
    "\n"
    "def pipeline(steps, seed):\n"
    "    return simulate(steps)\n"
)


class TestToolRegistry:
    def test_tier_order_and_manifest_surface(self):
        names = [name for name, _e, _b, _g in check.TOOLS]
        assert names == ["lint", "audit", "vec", "flow"]
        gated = {name for name, _e, _b, gated in check.TOOLS if gated}
        assert gated == {"audit", "vec", "flow"}
        # One committed manifest, one section per gated tier.
        committed = json.loads(
            (REPO_ROOT / MANIFEST_FILE).read_text(encoding="utf-8")
        )
        assert committed["version"] == MANIFEST_VERSION
        assert set(committed) - {"version"} == gated


class TestArgvValidation:
    def test_unknown_skip_exits_two(self, capsys):
        assert main(["--skip", "bogus"]) == 2
        assert "unknown tool" in capsys.readouterr().err

    def test_everything_skipped_exits_two(self, capsys):
        assert main(["--skip", "lint,audit,vec,flow"]) == 2
        assert "every tool skipped" in capsys.readouterr().err

    def test_a_retired_rule_is_a_usage_error(self, capsys):
        """RPL204 folded into RPL403; its ID names no rule any more."""
        assert main(["--select", "RPL204"]) == 2
        assert "unknown rule 'RPL204'" in capsys.readouterr().err

    def test_list_rules_is_the_whole_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        headers = [line for line in out.splitlines() if line.endswith(":")]
        assert headers == [
            "lint rules:", "audit rules:", "vec rules:", "flow rules:", "every tier:"
        ]
        listed = re.findall(r"^  (RPL\d{3})  ", out, flags=re.MULTILINE)
        assert listed == sorted(listed) and len(listed) == len(set(listed)) == 22
        assert "RPL204" not in listed and "RPL900" in listed


class TestMergedExecution:
    @pytest.fixture
    def seed_drop_tree(self, tmp_path, monkeypatch):
        """A working directory with every lint target and an audit-only fault."""
        for target in ("benchmarks", "tests", "examples", "src/pkg"):
            (tmp_path / target).mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "__init__.py").write_text("", encoding="utf-8")
        (tmp_path / "src" / "pkg" / "sim.py").write_text(SEED_DROP, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_exit_code_is_the_worst_tool_status(self, seed_drop_tree, capsys):
        assert main([]) == 1
        out = capsys.readouterr().out
        assert "RPL202 [seed-drop]" in out
        assert "lint=0 audit=1 vec=0 flow=0 -> exit 1" in out

    def test_check_manifests_forwards_only_to_gated_tools(
        self, seed_drop_tree, capsys
    ):
        """No manifest is committed here, so every gated section drifts."""
        assert main(["--check-manifests"]) == 1
        captured = capsys.readouterr()
        assert "lint=0 audit=1 vec=1 flow=1 -> exit 1" in captured.out
        for name in ("audit", "vec", "flow"):
            assert f"manifest drift — {MANIFEST_FILE} [{name}]" in captured.err
        assert "[lint]" not in captured.err + captured.out

    def test_skip_runs_a_subset(self, seed_drop_tree, capsys):
        assert main(["--skip", "audit,vec"]) == 0
        out = capsys.readouterr().out
        assert "lint=0 flow=0 -> exit 0" in out
        assert "== audit ==" not in out and "== vec ==" not in out

    def test_select_runs_only_the_owning_tiers(self, seed_drop_tree, capsys):
        assert main(["--select", "seed-drop,RPL103"]) == 1
        out = capsys.readouterr().out
        assert "RPL202 [seed-drop]" in out
        assert "lint=0 audit=1 -> exit 1" in out

    def test_ignore_reaches_the_owning_tier(self, seed_drop_tree, capsys):
        assert main(["--ignore", "RPL202"]) == 0
        assert "lint=0 audit=0 vec=0 flow=0 -> exit 0" in capsys.readouterr().out

    def test_paths_replace_every_tiers_defaults(self, seed_drop_tree, capsys):
        assert main(["src/pkg"]) == 1
        out = capsys.readouterr().out
        assert "lint: clean — 2 file(s)" in out
        assert "audit: 1 finding(s) in 2 file(s)" in out

    def test_write_manifests_then_check_manifests(self, seed_drop_tree, capsys):
        assert main(["--write-manifests", "--skip", "audit"]) == 0
        assert (seed_drop_tree / MANIFEST_FILE).exists()
        capsys.readouterr()
        assert main(["--check-manifests", "--skip", "audit"]) == 0
        assert "[flow] is current" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--select", "--ignore"])
    def test_write_manifests_takes_no_rule_selection(
        self, seed_drop_tree, capsys, option
    ):
        """A section written from some rules would drift from every rule's."""
        assert main(["--write-manifests", "--skip", "lint", option, "RPL401"]) == 2
        assert "takes no --select or --ignore" in capsys.readouterr().err
        assert not (seed_drop_tree / MANIFEST_FILE).exists()

    def test_json_mode_merges_the_tool_reports(self, seed_drop_tree, capsys):
        assert main(["--format", "json", "--check-manifests"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["status"] == 1
        assert payload["manifests_checked"] is True
        assert set(payload["tools"]) == {"lint", "audit", "vec", "flow"}
        exits = {name: tool["exit"] for name, tool in payload["tools"].items()}
        assert exits == {"lint": 0, "audit": 1, "vec": 1, "flow": 1}
        (finding,) = payload["tools"]["audit"]["report"]["findings"]
        assert finding["rule"] == "RPL202"
        for tool in payload["tools"].values():
            assert set(tool["report"]) == {"version", "findings", "summary"}


class TestAgainstRealTree:
    """The CI gate over the repo, from the shared session reports."""

    def test_repo_passes_all_four_tiers_with_manifests(
        self, repo_lint, src_reports, monkeypatch
    ):
        monkeypatch.chdir(REPO_ROOT)  # the committed manifest
        assert repo_lint.ok, repo_lint.findings
        for name, tier in TIERS.items():
            report = src_reports[name]
            assert report.findings == [], (name, report.findings)
            passed, message = tier.gate(report, check=True)
            assert passed, message
