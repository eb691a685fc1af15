"""Fixture-driven RPL4xx rule tests, mirroring ``tests/vec/test_rules.py``.

Each flow rule has a ``<id>_bad`` fixture tree that must fire it on
exactly the lines carrying ``# expect: <ID>`` markers, and a
``<id>_good`` tree of its closest look-alikes that must stay silent.
"""

from pathlib import Path

import pytest

from repro.flow import FLOW_RULES, flow_rule_by_identifier, run_flow

from .conftest import FIXTURES, expected_findings

RULE_IDS = [rule.rule_id for rule in FLOW_RULES]


class TestRuleRegistry:
    def test_exactly_the_rpl4xx_family(self):
        assert RULE_IDS == [
            "RPL401",
            "RPL402",
            "RPL403",
            "RPL404",
            "RPL405",
        ]

    def test_metadata_complete(self):
        for rule in FLOW_RULES:
            assert rule.rule_id.startswith("RPL4")
            assert rule.name and rule.summary and rule.rationale

    def test_lookup_by_id_and_name(self):
        for rule in FLOW_RULES:
            assert flow_rule_by_identifier(rule.rule_id) is rule
            assert flow_rule_by_identifier(rule.name) is rule

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            flow_rule_by_identifier("RPL999")

    def test_every_rule_has_fixture_tree_pair(self):
        for rule in FLOW_RULES:
            assert (FIXTURES / f"{rule.rule_id.lower()}_bad").is_dir()
            assert (FIXTURES / f"{rule.rule_id.lower()}_good").is_dir()


class TestBadTreesFire:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_exact_files_lines_and_ids(self, rule_id):
        tree = FIXTURES / f"{rule_id.lower()}_bad"
        report = run_flow([tree], suppressions="line")
        got = {
            (Path(f.path).name, f.line, f.rule_id) for f in report.findings
        }
        want = expected_findings(tree)
        assert want, f"{tree.name} must declare expectations"
        assert got == want

    def test_rpl401_names_the_param_boundary_and_kind(self):
        report = run_flow([FIXTURES / "rpl401_bad"], suppressions="line")
        (finding,) = report.findings
        assert "'mode'" in finding.message
        assert "run_model" in finding.message
        assert "returned result" in finding.message

    def test_rpl402_names_the_field_and_the_digest_path(self):
        report = run_flow([FIXTURES / "rpl402_bad"], suppressions="line")
        (finding,) = report.findings
        assert "'window'" in finding.message
        assert "SweepSpec" in finding.message
        assert "digest" in finding.message

    def test_rpl402_reads_the_class_a_reused_name_binds(self, tmp_path):
        # The second ``Spec`` rebinds the name: its fields are the ones
        # that reach the digest, the shadowed class's are not checked.
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "spec.py").write_text(
            "from dataclasses import dataclass\n"
            "\n"
            "\n"
            "@dataclass\n"
            "class Spec:\n"
            "    a: int\n"
            "    shadowed: int\n"
            "\n"
            "    def digest(self):\n"
            "        return str(self.a)\n"
            "\n"
            "\n"
            "@dataclass\n"
            "class Spec:\n"
            "    a: int\n"
            "    live: int\n"
            "\n"
            "    def digest(self):\n"
            "        return str(self.a)\n",
            encoding="utf-8",
        )
        report = run_flow([tmp_path], suppressions="line")
        (finding,) = report.findings
        assert finding.rule_id == "RPL402"
        assert finding.line == 16
        assert "'live'" in finding.message

    def test_rpl403_names_the_module_worker_and_trace(self):
        report = run_flow([FIXTURES / "rpl403_bad"], suppressions="line")
        (finding,) = report.findings
        assert "rpl403_bad.kernels" in finding.message
        assert "run_table" in finding.message
        assert "->" in finding.message

    def test_rpl404_names_the_lacking_artifact(self):
        report = run_flow([FIXTURES / "rpl404_bad"], suppressions="line")
        messages = [f.message for f in report.findings]
        assert any("plain" in m for m in messages)
        assert all("silently defaults" in m for m in messages)

    def test_rpl405_covers_direct_and_helper_flows(self):
        report = run_flow([FIXTURES / "rpl405_bad"], suppressions="line")
        messages = [f.message for f in report.findings]
        assert any("set" in m and "helper" not in m for m in messages)
        assert any("helper_tag" in m for m in messages)


class TestGoodTreesStaySilent:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_no_findings(self, rule_id):
        tree = FIXTURES / f"{rule_id.lower()}_good"
        report = run_flow([tree], suppressions="line")
        assert report.findings == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}"
            for f in report.findings
        )


class TestSelection:
    def test_select_restricts_to_one_rule(self):
        tree = FIXTURES / "rpl401_bad"
        report = run_flow([tree], suppressions="line", select=["RPL402"])
        assert report.findings == []

    def test_ignore_drops_a_rule(self):
        tree = FIXTURES / "rpl401_bad"
        report = run_flow([tree], suppressions="line", ignore=["RPL401"])
        assert report.findings == []

    def test_select_by_name(self):
        tree = FIXTURES / "rpl401_bad"
        report = run_flow(
            [tree], suppressions="line", select=["key-dropped-param"]
        )
        assert {f.rule_id for f in report.findings} == {"RPL401"}


class TestSanctioning:
    def test_line_directive_moves_finding_to_the_ledger(self):
        report = run_flow([FIXTURES / "sanctioned"])
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["RPL401"]
        assert report.ok
