"""CLI tests for the runner's parallel/caching/failure flags.

Covers ``--jobs`` (including the usage-error rejection of zero and
negative worker counts, and identical output across worker counts),
``--cache`` round trips, the ``--no-cache`` bypass, the
failure-semantics flags (``--retries``, ``--trial-timeout``,
``--max-failures`` — driven end-to-end with registry-injected faulty
artifacts), override misuse, and a snapshot of the ``--help`` text so
flag/wording changes are deliberate.
"""

import json
import os
import re
import textwrap

import pytest

from repro.experiments import REGISTRY
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import main

HELP_SNAPSHOT = textwrap.dedent(
    """\
    usage: repro-experiments [-h] [--seed SEED] [--fast] [--jobs N] [--cache DIR]
                             [--no-cache] [--csv DIR] [--engine ENGINE]
                             [--delay-model MODEL] [--retries N]
                             [--trial-timeout S] [--max-failures N]
                             [ID ...]

    Regenerate the paper's tables and figures.

    positional arguments:
      ID                   artifact ids to run (default: all). Known: figure3,
                           figure4, figure6, figure7, figure8, table1, table2,
                           table3, table4, table5, table6, table7, table8

    options:
      -h, --help           show this help message and exit
      --seed SEED          experiment seed
      --fast               reduced workloads (CI-sized)
      --jobs N             worker processes across the chosen artifacts (default:
                           1)
      --cache DIR          on-disk result cache directory (reruns skip completed
                           work)
      --no-cache           bypass the result cache even when --cache is given
      --csv DIR            directory to dump figure series as CSV files
      --engine ENGINE      simulation engine override for simulator-backed
                           experiments (one of: auto, scalar, graph)
      --delay-model MODEL  calibrated propagation-delay model for simulator-backed
                           experiments (one of: calibrated; requires --engine
                           graph)
      --retries N          retry each failed artifact up to N times with its
                           original seed
      --trial-timeout S    per-artifact timeout in seconds (hung/dead workers are
                           respawned)
      --max-failures N     stop the run (exit 2) once more than N artifacts have
                           failed

    Scenario sweeps: 'repro-experiments sweep SPECFILE' runs a declarative spec-
    file sweep (own flags; see --help there).
    """
)


def _artifact_text(out):
    """Runner stdout without the per-artifact timing lines."""
    return [line for line in out.splitlines() if "completed in" not in line]


class TestJobsFlag:
    def test_jobs_runs_and_reports_trials(self, capsys):
        assert main(["--fast", "--jobs", "2", "table6"]) == 0
        out = capsys.readouterr().out
        assert "table6" in out
        assert re.search(r"\(table6 completed in \S+; worker \d+, jobs=2\)", out)

    def test_jobs2_prints_what_jobs1_prints(self, capsys):
        # Not sorted: output follows the chosen order, not landing order.
        ids = ["table6", "figure7", "table5", "figure6"]
        assert main(["--fast", "--jobs", "1", *ids]) == 0
        serial = capsys.readouterr().out
        assert main(["--fast", "--jobs", "2", *ids]) == 0
        fanned = capsys.readouterr().out
        assert _artifact_text(fanned) == _artifact_text(serial)
        titles = [line.split(":")[0] for line in serial.splitlines() if ": " in line]
        assert [t for t in titles if t in ids] == ids
        assert set(re.findall(r"worker (\d+)", serial)) == {str(os.getpid())}
        pids = set(re.findall(r"worker (\d+)", fanned))
        assert len(pids) > 1 and str(os.getpid()) not in pids

    @pytest.mark.parametrize("bad", ["0", "-1", "-4"])
    def test_zero_and_negative_jobs_rejected(self, bad, capsys):
        # A usage error (exit 2), not an engine traceback: exit 1 is
        # reserved for failed trials.
        with pytest.raises(SystemExit) as excinfo:
            main(["--fast", "--jobs", bad, "table6"])
        assert excinfo.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_default_is_serial(self, capsys):
        assert main(["--fast", "table6"]) == 0
        assert "jobs=1" in capsys.readouterr().out


class TestCacheFlags:
    def test_cache_roundtrip(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["--fast", "--cache", str(cache_dir), "table6"]) == 0
        first = capsys.readouterr().out
        assert "1 store(s)" in first
        assert len(list(cache_dir.glob("*.json"))) == 1

        assert main(["--fast", "--cache", str(cache_dir), "table6"]) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert "1 hit(s)" in second
        # The artifact table renders identically from the cache.
        assert first.splitlines()[0] == second.splitlines()[0]

    def test_no_cache_bypasses(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        for _ in range(2):
            assert (
                main(
                    ["--fast", "--cache", str(cache_dir), "--no-cache", "table6"]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert "cache hit" not in out
            assert "cache:" not in out
        assert not cache_dir.exists()

    def test_seed_change_recomputes(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["--fast", "--cache", str(cache_dir), "table6"]) == 0
        capsys.readouterr()
        assert main(
            ["--fast", "--seed", "5", "--cache", str(cache_dir), "table6"]
        ) == 0
        out = capsys.readouterr().out
        assert "cache hit" not in out
        assert len(list(cache_dir.glob("*.json"))) == 2


def _make_faulty_run(failing_calls):
    """Registry-shaped artifact that raises on its first ``failing_calls`` calls.

    The runner retries an artifact inline at ``--jobs 1``, so the call
    count is this process's.
    """
    calls = []

    def run(seed=0, fast=False):
        calls.append(seed)
        if len(calls) <= failing_calls:
            raise RuntimeError(f"injected failure on call {len(calls)}")
        return ExperimentResult(
            experiment_id="faulty",
            title="synthetic faulting experiment",
            headers=["seed"],
            rows=[(seed,)],
        )

    return run


@pytest.fixture()
def faulty_registry(monkeypatch):
    """Two injected artifacts: one recovers after a retry, one never."""
    monkeypatch.setitem(REGISTRY, "flaky", _make_faulty_run(1))
    monkeypatch.setitem(REGISTRY, "doomed", _make_faulty_run(99))


class TestFailureFlags:
    def test_retry_flags_accepted_on_a_clean_run(self, capsys):
        assert (
            main(
                [
                    "--fast",
                    "--retries",
                    "2",
                    "--trial-timeout",
                    "300",
                    "table6",
                ]
            )
            == 0
        )
        assert "table6" in capsys.readouterr().out

    def test_negative_retries_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--fast", "--retries", "-1", "table6"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_negative_max_failures_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--fast", "--max-failures", "-1", "table6"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["0", "-1", "nan"])
    def test_non_positive_trial_timeout_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--fast", "--trial-timeout", bad, "table6"])
        assert excinfo.value.code == 2
        assert "--trial-timeout must be > 0" in capsys.readouterr().err

    def test_retries_recover_a_flaky_experiment(self, faulty_registry, capsys):
        assert main(["--fast", "--retries", "2", "flaky"]) == 0
        out = capsys.readouterr().out
        assert "synthetic faulting experiment" in out
        assert "(flaky completed in" in out

    def test_without_retries_the_flaky_experiment_fails(
        self, faulty_registry, capsys
    ):
        assert main(["--fast", "flaky"]) == 1
        err = capsys.readouterr().err
        assert "[FAIL] flaky" in err
        assert "injected failure on call 1" in err
        assert "index=0" in err and "seed=0" in err

    def test_failure_within_budget_continues_the_sweep(
        self, faulty_registry, capsys
    ):
        assert main(["--fast", "--max-failures", "3", "doomed", "table6"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] doomed" in captured.err
        assert "1 artifact failure(s):" in captured.err
        assert "(doomed, 0, 0)" in captured.err  # the reproducing triple
        assert "table6" in captured.out  # the run kept going

    def test_budget_exceeded_aborts_with_exit_2(self, faulty_registry, capsys):
        assert main(["--fast", "--max-failures", "0", "doomed", "table6"]) == 2
        captured = capsys.readouterr()
        assert "aborting run, skipping: table6" in captured.err
        assert "1 artifact failure(s) (budget: --max-failures 0):" in captured.err
        assert "(doomed, 0, 0)" in captured.err
        assert "table6" not in captured.out  # never ran

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_trial_timeout_is_enforced_at_every_jobs(self, jobs, capsys):
        # table5 takes about 0.2 s at --fast; a timed run uses a worker
        # even at --jobs 1, so the timeout is enforced there too.
        argv = ["--fast", "--jobs", jobs, "--trial-timeout", "0.01", "table5"]
        assert main(argv) == 1
        assert "(table5, 0, 0) timeout" in capsys.readouterr().err

    def test_failures_are_listed_in_chosen_order(self, faulty_registry, capsys):
        assert main(["--fast", "doomed", "table6", "flaky"]) == 1
        captured = capsys.readouterr()
        assert "2 artifact failure(s):" in captured.err
        roster = captured.err.split("artifact failure(s):")[1]
        assert roster.index("(doomed, 0, 0)") < roster.index("(flaky, 2, 0)")
        assert "table6" in captured.out


class TestOverrideMisuse:
    def test_engine_on_ids_without_the_knob_is_a_usage_error(self, capsys):
        argv = ["--fast", "--engine", "graph", "--max-failures", "0"]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "table6", "table4", "figure7"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--engine is not taken by: table6, table4" in captured.err
        assert captured.out == ""  # nothing ran, figure7 included

    def test_delay_model_on_ids_without_the_knob_is_a_usage_error(
        self, monkeypatch, capsys
    ):
        # An artifact that takes an engine but no delay model.
        monkeypatch.setitem(
            REGISTRY, "engine_only", lambda seed=0, fast=False, engine="auto": None
        )
        argv = ["--engine", "graph", "--delay-model", "calibrated"]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "figure7", "engine_only"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--delay-model is not taken by: engine_only" in captured.err
        assert captured.out == ""

    def test_overrides_on_artifacts_that_take_them_run(self, capsys):
        assert main(["--fast", "--engine", "scalar", "figure7"]) == 0
        assert "figure7" in capsys.readouterr().out


class TestHelpSnapshot:
    def test_help_text(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == HELP_SNAPSHOT


class TestValidationOrdering:
    """Regression: the experiment-id whitelist must fire before flag
    value validation.

    ``--engine``/``--delay-model`` used to be argparse ``choices=``,
    which validate during ``parse_args`` — so ``repro-experiments
    bogus-exp --engine bogus`` complained about the engine and never
    mentioned the unknown experiment id the user actually typoed.
    """

    def test_unknown_id_reported_before_bad_engine(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus-exp", "--engine", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment ids: bogus-exp" in err
        assert "unknown engine" not in err

    def test_unknown_id_reported_before_bad_delay_model(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["nope", "--delay-model", "warp"])
        assert excinfo.value.code == 2
        assert "unknown experiment ids: nope" in capsys.readouterr().err

    def test_bad_engine_alone_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table6", "--engine", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'bogus'" in err
        assert "auto, scalar, graph" in err

    def test_bad_delay_model_alone_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table6", "--delay-model", "warp"])
        assert excinfo.value.code == 2
        assert "unknown delay model 'warp'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--jobs", "0"), ("--trial-timeout", "-1")]
    )
    def test_unknown_id_reported_before_bad_worker_flag(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["nope", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment ids: nope" in err
        assert flag not in err.splitlines()[-1]

    def test_delay_model_still_requires_graph_engine(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table6", "--delay-model", "calibrated"])
        assert excinfo.value.code == 2
        assert "requires --engine graph" in capsys.readouterr().err


def _write_plan(tmp_path, name="mini", count=None, size=3, steps=6):
    plan = {
        "name": name,
        "base": {
            "topology": "grid",
            "size": size,
            "steps": steps,
            "steps_per_block": 3,
            "sample_every": 3,
        },
        "grid": {"attacker_share": [0.2, 0.4]},
        "frontier": {
            "vary": "attacker_share",
            "success": {
                "metric": "peak_attacker_fraction",
                "op": ">=",
                "threshold": 0.0,
            },
        },
    }
    if count is not None:
        plan["random"] = {
            "count": count,
            "axes": {"failure_rate": {"uniform": [0.0, 0.3]}},
        }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


class TestSweepSubcommand:
    def test_sweep_runs_and_writes_artifact(self, tmp_path, capsys):
        plan = _write_plan(tmp_path)
        out = tmp_path / "artifact.json"
        assert main(["sweep", str(plan), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "sweep 'mini': 2 spec(s)" in stdout
        artifact = json.loads(out.read_text(encoding="utf-8"))
        assert artifact["name"] == "mini"
        assert artifact["num_specs"] == 2
        assert len(artifact["summaries"]) == 2
        assert artifact["frontier"][0]["frontier"] == 0.2

    def test_sweep_cache_warm_rerun_executes_nothing(self, tmp_path, capsys):
        plan = _write_plan(tmp_path)
        cache = tmp_path / "cache"
        assert main(["sweep", str(plan), "--cache", str(cache)]) == 0
        assert "2 executed, 0 cached" in capsys.readouterr().out
        assert main(["sweep", str(plan), "--cache", str(cache)]) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out

    def test_sweep_artifact_identical_across_jobs(self, tmp_path, capsys):
        plan = _write_plan(tmp_path)
        serial = tmp_path / "serial.json"
        fanned = tmp_path / "fanned.json"
        assert main(["sweep", str(plan), "--out", str(serial)]) == 0
        assert (
            main(["sweep", str(plan), "--jobs", "2", "--out", str(fanned)])
            == 0
        )
        capsys.readouterr()
        assert serial.read_bytes() == fanned.read_bytes()

    def test_sweep_unreadable_specfile_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(tmp_path / "missing.json")])
        assert excinfo.value.code == 2
        assert "unreadable sweep spec file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--jobs", "0", "--jobs must be >= 1"),
            ("--jobs", "-3", "--jobs must be >= 1"),
            ("--trial-timeout", "0", "--trial-timeout must be > 0"),
            ("--trial-timeout", "-1", "--trial-timeout must be > 0"),
        ],
    )
    def test_sweep_bad_worker_flag_exits_2(
        self, tmp_path, capsys, flag, value, message
    ):
        plan = _write_plan(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(plan), flag, value])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_trial_timeout_is_enforced_at_every_jobs(
        self, jobs, tmp_path, capsys
    ):
        # Each spec takes about 0.3 s, far over the timeout.
        plan = _write_plan(tmp_path, size=40, steps=600)
        argv = ["sweep", str(plan), "--jobs", jobs, "--trial-timeout", "0.01"]
        assert main(argv) == 1
        assert "trial failed (timeout)" in capsys.readouterr().err

    def test_sweep_negative_retries_rejected(self, tmp_path, capsys):
        plan = _write_plan(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(plan), "--retries", "-1"])
        assert excinfo.value.code == 2
        capsys.readouterr()
