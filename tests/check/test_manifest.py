"""The merged analyzer ledger: one file, one section per whole-program tier.

The audit, vec and flow tiers each own one section of
``ANALYSIS_MANIFEST.json``.  Writing or checking a tier touches only its
own section; these cases hold all three tiers to that through their
one-tier ``repro-check`` runs (``repro.check.TOOLS``).  The committed
file is checked for currency per tier (``tests/audit/test_manifest.py``,
``tests/{vec,flow}/test_self_clean.py``) and as CI runs it
(``tests/check/test_check.py``).
"""

import json
from pathlib import Path

import pytest

from repro.check import TOOLS
from repro.lint.manifest import MANIFEST_FILE, render_manifest

TESTS = Path(__file__).resolve().parents[1]

ENTRIES = {name: entry for name, entry, _base, _gated in TOOLS}

#: section -> (its tier's one-tier run, a fixture tree whose section is not empty).
TIERS = {
    "audit": (ENTRIES["audit"], TESTS / "flow" / "fixtures" / "rpl403_good"),
    "vec": (ENTRIES["vec"], TESTS / "vec" / "fixtures" / "sanctioned"),
    "flow": (ENTRIES["flow"], TESTS / "flow" / "fixtures" / "sanctioned"),
}


@pytest.fixture
def ledger(tmp_path, monkeypatch, capsys):
    """A manifest in a scratch working directory with every section written."""
    monkeypatch.chdir(tmp_path)
    for main, tree in TIERS.values():
        assert main([str(tree), "--write-manifests"]) == 0
    capsys.readouterr()
    return tmp_path / MANIFEST_FILE


def _check(section):
    main, tree = TIERS[section]
    return main([str(tree), "--check-manifests"])


def _commit(path, document):
    path.write_text(render_manifest(document), encoding="utf-8")


def _others_pass(section, capsys):
    others = [name for name in sorted(TIERS) if name != section]
    assert [_check(name) for name in others] == [0] * len(others)
    capsys.readouterr()


@pytest.mark.parametrize("section", sorted(TIERS))
def test_write_leaves_other_sections_byte_identical(section, ledger, capsys):
    before = json.loads(ledger.read_text(encoding="utf-8"))
    empty = ledger.parent / "pkg"
    empty.mkdir()
    (empty / "__init__.py").write_text("", encoding="utf-8")
    main, _tree = TIERS[section]
    assert main([str(empty), "--write-manifests"]) == 0
    after = ledger.read_text(encoding="utf-8")
    written = json.loads(after)[section]
    assert written != before[section]
    assert after == render_manifest(dict(before, **{section: written}))
    assert main([str(empty), "--check-manifests"]) == 0
    assert "is current" in capsys.readouterr().out
    _others_pass(section, capsys)


@pytest.mark.parametrize("section", sorted(TIERS))
def test_drift_fails_only_the_drifted_section(section, ledger, capsys):
    document = json.loads(ledger.read_text(encoding="utf-8"))
    document[section]["stale"] = []
    _commit(ledger, document)
    assert _check(section) == 1
    err = capsys.readouterr().err
    assert "manifest drift" in err and "--write-manifests" in err
    assert f"{MANIFEST_FILE} [{section}] (committed)" in err
    assert f"{MANIFEST_FILE} [{section}] (derived from source)" in err
    assert '-    "stale": []' in err
    _others_pass(section, capsys)


@pytest.mark.parametrize("section", sorted(TIERS))
def test_missing_section_fails_check_with_diff(section, ledger, capsys):
    document = json.loads(ledger.read_text(encoding="utf-8"))
    del document[section]
    _commit(ledger, document)
    assert _check(section) == 1
    err = capsys.readouterr().err
    assert f"{MANIFEST_FILE} [{section}] (committed)" in err
    assert f'+  "{section}": {{' in err
    _others_pass(section, capsys)
