"""``repro-check`` umbrella: one gate over all four analysis tiers."""

import json
from pathlib import Path

import pytest

import repro.check as check
from repro.check import main
from repro.lint.manifest import MANIFEST_FILE, MANIFEST_VERSION

REPO_ROOT = Path(__file__).resolve().parents[2]


def _fake_tool(exit_code, seen):
    def entry(argv):
        seen.append(list(argv))
        print(json.dumps({"summary": {"findings": 0}}))
        return exit_code

    return entry


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


class TestMergedExecution:
    @pytest.fixture
    def fake_tools(self, monkeypatch):
        seen = {"lint": [], "audit": [], "vec": [], "flow": []}
        monkeypatch.setattr(
            check,
            "TOOLS",
            (
                ("lint", _fake_tool(0, seen["lint"]), ["src"], False),
                ("audit", _fake_tool(1, seen["audit"]), [], True),
                ("vec", _fake_tool(0, seen["vec"]), [], True),
                ("flow", _fake_tool(0, seen["flow"]), [], True),
            ),
        )
        return seen

    def test_exit_code_is_the_worst_tool_status(self, fake_tools, capsys):
        assert main([]) == 1
        out = capsys.readouterr().out
        assert "lint=0 audit=1 vec=0 flow=0 -> exit 1" in out

    def test_check_manifests_forwards_only_to_gated_tools(
        self, fake_tools, capsys
    ):
        assert main(["--check-manifests"]) == 1
        capsys.readouterr()
        assert "--check-manifest" not in fake_tools["lint"][0]
        for name in ("audit", "vec", "flow"):
            assert "--check-manifest" in fake_tools[name][0]

    def test_skip_runs_a_subset(self, fake_tools, capsys):
        assert main(["--skip", "audit,vec"]) == 0
        out = capsys.readouterr().out
        assert "lint=0 flow=0 -> exit 0" in out
        assert fake_tools["audit"] == [] and fake_tools["vec"] == []

    def test_json_mode_merges_the_tool_reports(self, fake_tools, capsys):
        assert main(["--format", "json", "--check-manifests"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["status"] == 1
        assert payload["manifests_checked"] is True
        assert set(payload["tools"]) == {"lint", "audit", "vec", "flow"}
        assert payload["tools"]["audit"]["exit"] == 1
        assert payload["tools"]["lint"]["report"] == {
            "summary": {"findings": 0}
        }
        for name in ("lint", "audit", "vec", "flow"):
            assert "--format" in fake_tools[name][0]
            assert "json" in fake_tools[name][0]


class TestAgainstRealTree:
    """One full umbrella run over the repo (the CI path)."""

    def test_repo_passes_all_four_tiers_with_manifests(self, capsys):
        status = main(["--format", "json", "--check-manifests"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0, payload
        exits = {name: tool["exit"] for name, tool in payload["tools"].items()}
        assert exits == {"lint": 0, "audit": 0, "vec": 0, "flow": 0}
        for tool in payload["tools"].values():
            assert tool["report"] is not None
            assert tool["report"]["summary"]["findings"] == 0
