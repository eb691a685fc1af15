"""Fixture-driven RPL2xx rule tests, mirroring ``tests/lint/test_rules.py``.

Each audit rule has a ``<id>_bad`` fixture *tree* (packages, because
these rules are about composition) that must fire it on exactly the
lines carrying ``# expect: <ID>`` markers, and a ``<id>_good`` tree of
its closest look-alikes that must stay silent.  Bad files carry
``disable-file`` headers so the repo-wide per-file lint skips their
deliberate bugs; the audit looks through them with
``suppressions="line"``.
"""

import re
from pathlib import Path

import pytest

from repro.audit import AUDIT_RULES, audit_rule_by_identifier, run_audit

from .conftest import FIXTURES

RULE_IDS = [rule.rule_id for rule in AUDIT_RULES]

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9_,\s]+)")


def expected_findings(tree):
    """All ``# expect:`` markers in a tree: {(file name, line, rule id)}."""
    expected = set()
    for path in sorted(Path(tree).rglob("*.py")):
        for lineno, text in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = _EXPECT_RE.search(text)
            if not match:
                continue
            for rule_id in match.group(1).split(","):
                expected.add((path.name, lineno, rule_id.strip()))
    return expected


class TestRuleRegistry:
    def test_exactly_the_rpl2xx_family(self):
        assert RULE_IDS == ["RPL201", "RPL202", "RPL203"]

    def test_metadata_complete(self):
        for rule in AUDIT_RULES:
            assert rule.rule_id.startswith("RPL2")
            assert rule.name and rule.summary and rule.rationale

    def test_lookup_by_id_and_name(self):
        for rule in AUDIT_RULES:
            assert audit_rule_by_identifier(rule.rule_id) is rule
            assert audit_rule_by_identifier(rule.name) is rule

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            audit_rule_by_identifier("RPL999")

    def test_every_rule_has_fixture_tree_pair(self):
        for rule in AUDIT_RULES:
            assert (FIXTURES / f"{rule.rule_id.lower()}_bad").is_dir()
            assert (FIXTURES / f"{rule.rule_id.lower()}_good").is_dir()


class TestBadTreesFire:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_exact_files_lines_and_ids(self, rule_id):
        tree = FIXTURES / f"{rule_id.lower()}_bad"
        report = run_audit([tree], suppressions="line")
        got = {
            (Path(f.path).name, f.line, f.rule_id) for f in report.findings
        }
        want = expected_findings(tree)
        assert want, f"{tree.name} must declare expectations"
        assert got == want

    def test_rpl201_finding_carries_the_call_chain(self):
        report = run_audit([FIXTURES / "rpl201_bad"], suppressions="line")
        (finding,) = report.findings
        # The message must name the effect AND the indirection path —
        # that is what makes a whole-program finding actionable.
        assert "global-rng" in finding.message
        assert "_trial" in finding.message
        assert "prepare" in finding.message


class TestGoodTreesSilent:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_no_findings(self, rule_id):
        tree = FIXTURES / f"{rule_id.lower()}_good"
        report = run_audit([tree], suppressions="line")
        assert report.findings == []


class TestSelectIgnore:
    def test_select_isolates_one_rule(self):
        tree = FIXTURES / "rpl203_bad"
        report = run_audit([tree], suppressions="line", select=["RPL201"])
        assert report.findings == []
        report = run_audit([tree], suppressions="line", select=["RPL203"])
        assert [f.rule_id for f in report.findings] == ["RPL203"]

    def test_ignore_drops_one_rule(self):
        tree = FIXTURES / "rpl203_bad"
        report = run_audit([tree], suppressions="line", ignore=["reachable-state"])
        assert report.findings == []


class TestSanctioning:
    def test_line_directive_sanctions_the_effect(self, make_package):
        root = make_package(
            "sanctioned",
            {
                "engine.py": (
                    "class TrialEngine:\n"
                    "    def map(self, fn, trials):\n"
                    "        return [fn(t) for t in trials]\n"
                ),
                "leaf.py": (
                    "import time\n"
                    "\n"
                    "\n"
                    "def stamp():\n"
                    "    return time.time()  # repro-lint: disable=RPL103 deliberate timing probe\n"
                ),
                "app.py": (
                    "from .engine import TrialEngine\n"
                    "from .leaf import stamp\n"
                    "\n"
                    "\n"
                    "def _trial(trial):\n"
                    "    return stamp()\n"
                    "\n"
                    "\n"
                    "def run_all(trials):\n"
                    "    engine = TrialEngine()\n"
                    "    return engine.run(_trial, trials).payloads\n"
                ),
            },
        )
        report = run_audit([root], suppressions="line")
        assert report.findings == []
        closure = report.context.closures["sanctioned.app._trial"]
        kinds = {
            (t.effect.kind, t.effect.sanctioned) for t in closure.effects
        }
        # The effect is still on the ledger — just declared intentional.
        assert ("wall-clock", True) in kinds

    def test_without_directive_the_same_tree_fires(self, make_package):
        root = make_package(
            "unsanctioned",
            {
                "engine.py": (
                    "class TrialEngine:\n"
                    "    def map(self, fn, trials):\n"
                    "        return [fn(t) for t in trials]\n"
                ),
                "leaf.py": (
                    "# repro-lint: disable-file audit test fixture\n"
                    "import time\n"
                    "\n"
                    "\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                ),
                "app.py": (
                    "from .engine import TrialEngine\n"
                    "from .leaf import stamp\n"
                    "\n"
                    "\n"
                    "def _trial(trial):\n"
                    "    return stamp()\n"
                    "\n"
                    "\n"
                    "def run_all(trials):\n"
                    "    engine = TrialEngine()\n"
                    "    return engine.run(_trial, trials).payloads\n"
                ),
            },
        )
        report = run_audit([root], suppressions="line")
        assert [f.rule_id for f in report.findings] == ["RPL201"]
