"""One ``repro-check`` pass reports what each tier reports on its own.

``repro-check`` parses every file once, builds the whole-program project
from the modules lint parsed, and lets audit, vec and flow check that
one project in turn.  These cases pin that the sharing changes no
verdict.  Each runs in a working tree built from one tier's committed
``# expect:`` fixture trees (as ``src``) and the lint fixtures (under
``tests``), once as committed and once with the ``disable-file`` headers
lifted so the production mode sees the deliberate bugs too:

- ``--format json`` nests, per tier, exactly the report and exit code
  that tier's own command line gives with the same options;
- the text run prints exactly what the four command lines print, in
  order, on stdout and on stderr;
- the whole-program tiers find the same on one shared project, in any
  order, as on three fresh loads — no tier changes what it shares.
"""

import itertools
import json
from pathlib import Path

import pytest

import repro.check as check
from repro.audit.project import Project

from ..conftest import TIERS

TESTS = Path(__file__).resolve().parents[1]
HEADER = "repro-lint: disable-file"


def _copy_tree(source, target, lift_headers):
    for path in sorted(source.rglob("*.py")):
        copy = target / path.relative_to(source)
        copy.parent.mkdir(parents=True, exist_ok=True)
        text = path.read_text(encoding="utf-8")
        if lift_headers:
            # Same line count, so every ``# expect:`` marker keeps its line.
            text = text.replace(HEADER, "fixture header lifted")
        copy.write_text(text, encoding="utf-8")


@pytest.fixture(params=sorted(TIERS))
def family(request):
    return request.param


@pytest.fixture(params=[False, True], ids=["as-committed", "headers-lifted"])
def work_tree(request, family, tmp_path, monkeypatch, capsys):
    """A working directory of fixture trees; lifted headers also get a manifest."""
    lift = request.param
    _copy_tree(TESTS / family / "fixtures", tmp_path / "src", lift)
    _copy_tree(TESTS / "lint" / "fixtures", tmp_path / "tests", lift)
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "examples").mkdir()
    monkeypatch.chdir(tmp_path)
    if lift:  # a current manifest: the gates pass; otherwise each drifts
        for tier in TIERS.values():
            tier.main(["--write-manifest"])
        capsys.readouterr()
    return tmp_path


def _own_run(entry, base, gated, fmt):
    argv = list(base) + ["--format", fmt]
    if gated:
        argv.append("--check-manifest")
    return entry(argv)


def test_json_nests_each_tiers_own_report(work_tree, capsys):
    status = check.main(["--format", "json", "--check-manifests"])
    payload = json.loads(capsys.readouterr().out)
    exits = []
    for name, entry, base, gated in check.TOOLS:
        exit_code = _own_run(entry, base, gated, "json")
        report, _end = json.JSONDecoder().raw_decode(capsys.readouterr().out)
        assert payload["tools"][name] == {"exit": exit_code, "report": report}, name
        exits.append(exit_code)
    assert status == payload["status"] == max(exits)


def test_text_prints_what_the_four_command_lines_print(work_tree, capsys):
    expected_out, expected_err, exits = "", "", {}
    for name, entry, base, gated in check.TOOLS:
        exits[name] = _own_run(entry, base, gated, "text")
        captured = capsys.readouterr()
        expected_out += f"== repro-{name} ==\n{captured.out}"
        expected_err += captured.err
    status = max(exits.values())
    summary = " ".join(f"{name}={code}" for name, code in exits.items())
    expected_out += f"repro-check: {summary} -> exit {status}\n"
    assert check.main(["--check-manifests"]) == status
    captured = capsys.readouterr()
    assert captured.out == expected_out
    assert captured.err == expected_err


def _verdict(tier, report):
    return report.findings, report.suppressed, tier.build_section(report)


@pytest.mark.parametrize("order", list(itertools.permutations(sorted(TIERS))))
def test_tiers_share_one_project_in_any_order(family, order, tmp_path, monkeypatch):
    _copy_tree(TESTS / family / "fixtures", tmp_path / "src", lift_headers=True)
    monkeypatch.chdir(tmp_path)
    fresh = {
        name: _verdict(tier, tier.check(Project.load(["src"])))
        for name, tier in TIERS.items()
    }
    shared = Project.load(["src"])
    for name in order:
        assert _verdict(TIERS[name], TIERS[name].check(shared)) == fresh[name], name
