"""The command-line front end the four analyzer CLIs share.

``repro-lint`` and the whole-program tiers (``repro-audit``,
``repro-vec``, ``repro-flow``, driven by ``repro.audit.tier``) parse
``--select``/``--ignore`` and render ``--list-rules`` through one
implementation; these cases hold all four to it, and the three
whole-program tiers to one set of manifest flags.
"""

import re
from pathlib import Path

import pytest

from repro.audit import AUDIT_RULES
from repro.audit.cli import main as audit_main
from repro.flow import FLOW_RULES
from repro.flow.cli import main as flow_main
from repro.lint import PARSE_ERROR_ID, RULES
from repro.lint.cli import main as lint_main
from repro.vec import VEC_RULES
from repro.vec.cli import main as vec_main

TESTS = Path(__file__).resolve().parents[1]

#: name -> (entry point, IDs its catalogue lists, a tree to run on).
CLIS = {
    "lint": (
        lint_main,
        {rule.rule_id for rule in RULES} | {PARSE_ERROR_ID},
        TESTS / "lint" / "fixtures",
    ),
    "audit": (
        audit_main,
        {rule.rule_id for rule in AUDIT_RULES},
        TESTS / "audit" / "fixtures",
    ),
    "vec": (
        vec_main,
        {rule.rule_id for rule in VEC_RULES},
        TESTS / "vec" / "fixtures" / "rpl311_bad",
    ),
    "flow": (
        flow_main,
        {rule.rule_id for rule in FLOW_RULES},
        TESTS / "flow" / "fixtures" / "rpl402_bad",
    ),
}

#: Whole-program tier -> (a tree where exactly one rule fires, that rule).
#: The audit's per-rule ``_bad`` trees carry ``disable-file`` headers
#: that the production CLI honours, so its fixture root stands in:
#: there only RPL204 fires.
ONLY_FIRING = {
    "audit": (TESTS / "audit" / "fixtures", "RPL204"),
    "vec": (TESTS / "vec" / "fixtures" / "rpl311_bad", "RPL311"),
    "flow": (TESTS / "flow" / "fixtures" / "rpl402_bad", "RPL402"),
}


@pytest.mark.parametrize("name", sorted(CLIS))
@pytest.mark.parametrize("option", ["--select", "--ignore"])
@pytest.mark.parametrize("value", ["", ",", " , "])
def test_a_rule_list_naming_no_rule_is_a_usage_error(name, option, value, capsys):
    main, _ids, tree = CLIS[name]
    assert main([option, value, str(tree)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro-{name}: error: {option} ")
    assert "names no rule" in captured.err


@pytest.mark.parametrize("name", sorted(CLIS))
def test_one_empty_value_among_several_is_still_an_error(name, capsys):
    main, ids, tree = CLIS[name]
    some_rule = sorted(ids - {PARSE_ERROR_ID})[0]
    assert main(["--select", some_rule, "--select", "", str(tree)]) == 2
    assert "names no rule" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(ONLY_FIRING))
def test_ignoring_the_only_firing_rule_passes(name, capsys):
    main, _ids, _tree = CLIS[name]
    tree, rule_id = ONLY_FIRING[name]
    assert main([str(tree)]) == 1
    assert rule_id in capsys.readouterr().out
    assert main(["--ignore", rule_id, str(tree)]) == 0
    assert "clean" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CLIS))
def test_list_rules_names_exactly_the_tier_rules(name, capsys):
    main, ids, _tree = CLIS[name]
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = re.findall(r"^  (RPL\d{3})  ", out, flags=re.MULTILINE)
    assert sorted(listed) == sorted(ids)
    assert out.splitlines()[0].startswith(f"repro-{name} rules")


@pytest.mark.parametrize("name", sorted(ONLY_FIRING))
def test_write_and_check_manifest_together_is_a_usage_error(
    name, tmp_path, monkeypatch, capsys
):
    main, _ids, tree = CLIS[name]
    monkeypatch.chdir(tmp_path)
    assert main([str(tree), "--write-manifest", "--check-manifest"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro-{name}: error: ")
    assert "mutually exclusive" in captured.err
    assert list(tmp_path.iterdir()) == []
