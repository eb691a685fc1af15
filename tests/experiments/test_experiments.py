"""Tests for the experiment regenerators (fast configurations).

These validate that every table/figure regenerator runs end to end and
that its headline metrics land in the paper's neighbourhood.  Full-
scale numeric audits live in the benchmarks.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import REGISTRY, figure7, run_artifacts, run_experiment
from repro.parallel import METRICS, FailurePolicy, TrialExecutionError


class TestRegistry:
    def test_all_artifacts_registered(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "table8", "figure3", "figure4", "figure6", "figure7",
            "figure8",
        }
        assert set(REGISTRY) == expected

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    @pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
    def test_runs_fast_and_renders(self, experiment_id):
        result = run_experiment(experiment_id, seed=0, fast=True)
        assert result.experiment_id == experiment_id
        assert result.rows
        text = result.render()
        assert experiment_id in text


class TestHeadlineMetrics:
    def test_table2_pins(self):
        result = run_experiment("table2", fast=True)
        assert result.metrics["top_as_nodes"] == 1030
        assert result.metrics["amazon_org_nodes"] == 756

    def test_table3_change(self):
        result = run_experiment("table3", fast=True)
        assert result.metrics["measured_50"] == 24
        assert abs(result.metrics["measured_30"] - 8) <= 1
        assert result.metrics["change_50"] == pytest.approx(52.0)

    def test_table4_shares(self):
        result = run_experiment("table4", fast=True)
        assert result.metrics["covered_share"] == pytest.approx(0.657)
        assert result.metrics["asns_for_65pct"] == 3

    def test_table6_exactness(self):
        result = run_experiment("table6", fast=True)
        assert result.metrics["max_abs_delta_seconds"] <= 2

    def test_figure4_contrast(self):
        result = run_experiment("figure4", fast=True)
        assert result.metrics["as24940_prefixes_for_95pct"] <= 25
        assert result.metrics["as16509_prefixes_for_95pct"] > 140

    def test_figure7_narrative(self):
        result = run_experiment("figure7", fast=True)
        assert result.metrics["fork_b_peak_fraction"] > 0.0
        assert result.metrics["final_chain_a_fraction"] >= 0.9
        assert result.metrics["tdelay_10k_nodes_seconds"] == pytest.approx(3.0)

    def test_table8_census(self):
        result = run_experiment("table8", fast=True)
        assert result.metrics["distinct_versions"] == 288
        assert result.metrics["dominant_share"] == pytest.approx(0.3628, abs=0.01)

    def test_figure6_shape(self):
        result = run_experiment("figure6", fast=True)
        assert result.metrics["forever_behind_fraction"] == pytest.approx(0.10, abs=0.05)
        assert result.metrics["peak_behind_fraction_c"] >= 0.6

    def test_determinism(self):
        a = run_experiment("table5", seed=3, fast=True)
        b = run_experiment("table5", seed=3, fast=True)
        assert a.rows == b.rows


class TestRunnerCli:
    def test_main_selected(self, capsys):
        from repro.experiments.runner import main

        assert main(["--fast", "table4"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out
        assert "AliBaba" in out

    def test_main_unknown_id(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["nope"])

    def test_main_csv_dump(self, tmp_path, capsys):
        from repro.experiments.runner import main

        out = tmp_path / "series"
        assert main(["--fast", "--csv", str(out), "figure4"]) == 0
        files = list(out.glob("figure4_*.csv"))
        assert len(files) == 5  # one per Figure-4 AS curve
        header = files[0].read_text().splitlines()[0]
        assert header.startswith("tick,")


def _broken(seed=0, fast=False):
    raise RuntimeError("broken artifact")


class TestArtifactBatch:
    """``run_artifacts``: one batch of artifact trials, cache hits aside."""

    def test_override_without_the_knob_raises_before_anything_runs(self):
        before = len(METRICS.records)
        with pytest.raises(ConfigurationError) as excinfo:
            run_artifacts(["figure7", "table1", "table6"], fast=True, engine="graph")
        assert "engine=['table1', 'table6']" in str(excinfo.value)
        assert len(METRICS.records) == before
        with pytest.raises(ConfigurationError):
            run_experiment("table1", fast=True, delay_model="calibrated")

    def test_repeated_id_runs_once(self):
        before = len(METRICS.records)
        batch = run_artifacts(["table6", "table6"], fast=True)
        assert list(batch.results) == ["table6"]
        assert [r.experiment_id for r in METRICS.records[before:]] == ["table6"]

    def test_skip_policy_reports_the_failed_artifact(self, monkeypatch):
        monkeypatch.setitem(REGISTRY, "broken", _broken)
        batch = run_artifacts(
            ["broken", "table6"], fast=True, policy=FailurePolicy(mode="skip")
        )
        assert [(f.experiment_id, f.index, f.kind) for f in batch.failures] == [
            ("broken", 0, "error")
        ]
        assert list(batch.results) == ["table6"] and not batch.aborted
        with pytest.raises(TrialExecutionError, match="broken artifact"):
            run_experiment("broken", policy=FailurePolicy(mode="skip"))

    def test_strict_policy_raises_naming_the_artifact(self, monkeypatch):
        monkeypatch.setitem(REGISTRY, "broken", _broken)
        with pytest.raises(TrialExecutionError) as excinfo:
            run_artifacts(["table6", "broken"], fast=True)
        assert excinfo.value.failure.experiment_id == "broken"
        assert excinfo.value.failure.index == 1

    def test_over_budget_batch_stops(self, monkeypatch):
        monkeypatch.setitem(REGISTRY, "broken", _broken)
        batch = run_artifacts(
            ["broken", "table6"],
            fast=True,
            policy=FailurePolicy(mode="skip", max_failures=0),
        )
        assert batch.aborted
        assert [f.experiment_id for f in batch.failures] == ["broken"]
        assert batch.results == {}


class TestFigure7Representative:
    """The panel search: first narrative match, else first with a fork B."""

    @staticmethod
    def _search(monkeypatch, candidates):
        tried = []

        def candidate(seed, size, engine, delay_model):
            tried.append(seed)
            peak_b, final_a = candidates[seed - 10]
            return {"seed": seed, "peak_b": peak_b, "final_a": final_a}

        monkeypatch.setattr(figure7, "_candidate", candidate)
        picked = figure7._representative(10, 15, attempts=len(candidates))
        return (None if picked is None else picked["seed"]), tried

    def test_stops_at_the_first_match(self, monkeypatch):
        candidates = [(0.0, 1.0), (0.9, 1.0), (0.3, 0.95), (0.2, 1.0)]
        assert self._search(monkeypatch, candidates) == (12, [10, 11, 12])

    def test_falls_back_to_the_first_with_a_fork_b(self, monkeypatch):
        candidates = [(0.0, 1.0), (0.9, 1.0), (0.7, 1.0)]
        assert self._search(monkeypatch, candidates) == (11, [10, 11, 12])

    def test_none_without_any_fork_b(self, monkeypatch):
        assert self._search(monkeypatch, [(0.0, 1.0)] * 3)[0] is None
