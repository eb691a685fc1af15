"""Reporter unit tests: stable text/JSON rendering."""

import json

from repro.lint import lint_source
from repro.lint.core import RunReport
from repro.lint.reporters import (
    JSON_SCHEMA_VERSION,
    render_json,
    render_text,
    summary_dict,
)

DIRTY = "import time\n\n\ndef f():\n    return time.time()\n"


def _report() -> RunReport:
    return RunReport(files=[lint_source(DIRTY, path="a/dirty.py")])


class TestTextReporter:
    def test_finding_line_format(self):
        text = render_text(_report())
        assert "a/dirty.py:5:11: RPL103 [wall-clock]" in text

    def test_summary_trailer_with_findings(self):
        assert "1 finding(s) in 1 file(s) [RPL103:1]" in render_text(_report())

    def test_clean_summary(self):
        report = RunReport(files=[lint_source("x = 1\n", path="ok.py")])
        assert render_text(report).startswith("lint: clean")


class TestJsonReporter:
    def test_round_trips_and_versioned(self):
        payload = json.loads(render_json(_report()))
        assert payload["version"] == JSON_SCHEMA_VERSION
        (finding,) = payload["findings"]
        assert finding["rule"] == "RPL103"
        assert finding["path"] == "a/dirty.py"
        assert finding["line"] == 5

    def test_byte_stable(self):
        assert render_json(_report()) == render_json(_report())


class TestSummaryDict:
    def test_counts(self):
        summary = summary_dict(_report())
        assert summary["files"] == 1
        assert summary["findings"] == 1
        assert summary["by_rule"] == {"RPL103": 1}
