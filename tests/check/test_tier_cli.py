"""The command-line front end every tier runs under.

Each tier runs alone as ``repro-check`` with the other tiers skipped:
its ``repro.check.TOOLS`` entry.  These cases hold all four to one
``--select``/``--ignore`` parser and one ``--list-rules`` renderer, and
the three whole-program tiers to one set of manifest flags.
"""

import re
from pathlib import Path

import pytest

from repro.audit import AUDIT_RULES
from repro.check import TOOLS
from repro.flow import FLOW_RULES
from repro.lint import PARSE_ERROR_ID, RULES
from repro.vec import VEC_RULES

TESTS = Path(__file__).resolve().parents[1]

ENTRIES = {name: entry for name, entry, _base, _gated in TOOLS}

#: name -> (IDs its catalogue block lists, a tree to run on).
CLIS = {
    "lint": ({rule.rule_id for rule in RULES}, TESTS / "lint" / "fixtures"),
    "audit": ({rule.rule_id for rule in AUDIT_RULES}, TESTS / "audit" / "fixtures"),
    "vec": (
        {rule.rule_id for rule in VEC_RULES},
        TESTS / "vec" / "fixtures" / "rpl311_bad",
    ),
    "flow": (
        {rule.rule_id for rule in FLOW_RULES},
        TESTS / "flow" / "fixtures" / "rpl402_bad",
    ),
}

#: Whole-program tier -> (a tree where exactly one rule fires, that rule).
ONLY_FIRING = {
    "vec": (TESTS / "vec" / "fixtures" / "rpl311_bad", "RPL311"),
    "flow": (TESTS / "flow" / "fixtures" / "rpl402_bad", "RPL402"),
}

#: The audit's committed ``_bad`` trees carry ``disable-file`` headers
#: that a production run honours, so its one-rule tree is written here:
#: ``pipeline`` drops its seed (RPL202).
SEED_DROP = (
    "def simulate(steps, seed=0):\n"
    "    return steps + seed\n"
    "\n"
    "\n"
    "def pipeline(steps, seed):\n"
    "    return simulate(steps)\n"
)


def _only_firing(name, tmp_path):
    if name != "audit":
        return ONLY_FIRING[name]
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "sim.py").write_text(SEED_DROP, encoding="utf-8")
    return package, "RPL202"


@pytest.mark.parametrize("name", sorted(CLIS))
@pytest.mark.parametrize("option", ["--select", "--ignore"])
@pytest.mark.parametrize("value", ["", ",", " , "])
def test_a_rule_list_naming_no_rule_is_a_usage_error(name, option, value, capsys):
    _ids, tree = CLIS[name]
    assert ENTRIES[name]([option, value, str(tree)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro-check: error: {option} ")
    assert "names no rule" in captured.err


@pytest.mark.parametrize("name", sorted(CLIS))
def test_one_empty_value_among_several_is_still_an_error(name, capsys):
    ids, tree = CLIS[name]
    some_rule = sorted(ids)[0]
    assert ENTRIES[name](["--select", some_rule, "--select", "", str(tree)]) == 2
    assert "names no rule" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["audit", "vec", "flow"])
def test_ignoring_the_only_firing_rule_passes(name, tmp_path, capsys):
    tree, rule_id = _only_firing(name, tmp_path)
    assert ENTRIES[name]([str(tree)]) == 1
    assert rule_id in capsys.readouterr().out
    assert ENTRIES[name](["--ignore", rule_id, str(tree)]) == 0
    assert "clean" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CLIS))
def test_list_rules_names_exactly_the_tier_rules(name, capsys):
    ids, _tree = CLIS[name]
    assert ENTRIES[name](["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = re.findall(r"^  (RPL\d{3})  ", out, flags=re.MULTILINE)
    assert sorted(listed) == sorted(ids | {PARSE_ERROR_ID})
    assert out.splitlines()[0] == f"{name} rules:"


@pytest.mark.parametrize("name", ["audit", "vec", "flow"])
def test_write_and_check_manifest_together_is_a_usage_error(
    name, tmp_path, monkeypatch, capsys
):
    _ids, tree = CLIS[name]
    monkeypatch.chdir(tmp_path)
    assert ENTRIES[name]([str(tree), "--write-manifests", "--check-manifests"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro-check: error: ")
    assert "mutually exclusive" in captured.err
    assert list(tmp_path.iterdir()) == []
