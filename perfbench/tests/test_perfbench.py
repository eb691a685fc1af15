"""Tests for the benchmark itself: tracer arithmetic, patch hygiene,
metric names and failure counting.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import json
import re
import sys
import time
import types
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# ----------------------------------------------------------------------
# Self time and inclusive time
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children():
    # outer [0, 10] > a [1, 4] > b [2, 3]; outer > c [5, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert tracer.self_seconds() == [10 - 3 - 4, 3 - 1, 1, 4]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "inclusive_s": 10, "self_s": 3}
    assert summary["a"]["self_s"] == 2 and summary["a"]["inclusive_s"] == 3
    # Self times partition the root span.
    assert sum(tracer.self_seconds()) == 10


def test_recursion_counts_inclusive_time_once():
    tracer = Tracer(clock=FakeClock([0, 2, 5, 8]))
    with tracer.span("f"):
        with tracer.span("f"):
            pass
    entry = tracer.summary()["f"]
    assert entry["calls"] == 2
    assert entry["inclusive_s"] == 8
    assert entry["self_s"] == 8


def test_span_closes_on_exception():
    tracer = Tracer(clock=FakeClock([0, 1]))
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError
    assert tracer.spans[0].seconds == 1 and not tracer._stack


# ----------------------------------------------------------------------
# Part times at the reference host speed
# ----------------------------------------------------------------------
def test_reference_speed_rescales_only_the_on_cpu_share():
    # 1.5 s of 2 s on a CPU at half the reference speed: 0.75 s there.
    assert workloads.at_reference_speed(2.0, 1.5, 0.5) == 1.25
    # Waiting is kept as measured; CPU time of parallel threads counts
    # no more than the wall time it overlapped.
    assert workloads.at_reference_speed(1.0, 0.0, 0.5) == 1.0
    assert workloads.at_reference_speed(1.0, 3.0, 0.5) == 0.5


def test_part_timer_rescales_each_part_by_the_speed_around_it(monkeypatch):
    wall = iter([0.0, 2.0, 2.0, 3.0])
    cpu = iter([0.0, 2.0, 2.0, 2.0])
    monkeypatch.setattr(
        workloads,
        "time",
        types.SimpleNamespace(
            perf_counter=lambda: next(wall), process_time=lambda: next(cpu)
        ),
    )
    speeds = iter([1.0, 0.5, 0.5])
    timer = workloads.PartTimer(speed=lambda: next(speeds))
    with timer.part("busy"):  # 2 s on a CPU, speed (1.0 + 0.5) / 2 around it
        pass
    with timer.part("idle"):  # 1 s of waiting
        pass
    assert timer.parts == {"busy": 1.5, "idle": 1.0}


def test_best_parts_takes_each_part_from_its_fastest_pass():
    passes = [
        workloads.PassResult({"a": 2.0, "b": 1.0}, 1, ("a",), 1),
        workloads.PassResult({"a": 1.5, "b": 3.0}, 1, ("a",), 1),
    ]
    assert run.best_parts(passes) == {"a": 1.5, "b": 1.0}


# ----------------------------------------------------------------------
# Originals restored after tracing
# ----------------------------------------------------------------------
class Base:
    def inherited(self):
        return "base"


class Target(Base):
    def plain(self):
        return "plain"

    @classmethod
    def build(cls):
        return cls

    @staticmethod
    def helper():
        return "helper"


def test_patch_method_kinds_are_traced_and_restored():
    before = dict(vars(Target))
    tracer = Tracer()
    for attr in ("plain", "build", "helper", "inherited"):
        tracer.patch_method(Target, attr, f"t.{attr}")
    target = Target()
    assert (target.plain(), Target.build(), Target.helper(), target.inherited()) == (
        "plain", Target, "helper", "base",
    )
    assert [span.name for span in tracer.spans] == [
        "t.plain", "t.build", "t.helper", "t.inherited",
    ]
    tracer.restore()
    assert dict(vars(Target)) == before
    assert "inherited" not in vars(Target)


def test_patch_function_replaces_every_binding_and_restores():
    def entry():
        return 42

    home = types.ModuleType("fakepkg.home")
    caller = types.ModuleType("fakepkg.caller")
    other = types.ModuleType("elsewhere")
    home.entry = caller.entry = caller.alias = other.entry = entry
    sys.modules.update({m.__name__: m for m in (home, caller, other)})
    try:
        tracer = Tracer()
        assert tracer.patch_function(entry, "entry", prefix="fakepkg") == 3
        assert caller.alias() == 42 and home.entry() == 42
        assert other.entry is entry
        assert len(tracer.spans) == 2
        tracer.restore()
        assert home.entry is entry and caller.entry is entry and caller.alias is entry
    finally:
        for m in (home, caller, other):
            del sys.modules[m.__name__]


def test_instrument_restores_every_program_entry_point():
    import repro.experiments  # noqa: F401  (binds the analysis functions)
    import repro.check  # noqa: F401  (binds build_call_graph in each tier)

    def snapshot():
        state = {}
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and module is not None:
                for attr, value in vars(module).items():
                    if callable(value):
                        state[(name, attr)] = value
                    if isinstance(value, type):
                        state.update(
                            ((name, attr, k), v) for k, v in vars(value).items()
                        )
        return state

    before = snapshot()
    tracer = Tracer()
    workloads.instrument(tracer)
    from repro.experiments import table1

    assert table1.build_paper_topology is not before[
        ("repro.experiments.table1", "build_paper_topology")
    ]
    tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


# ----------------------------------------------------------------------
# Metric names and the contract file
# ----------------------------------------------------------------------
def test_metric_names_are_valid_and_unique():
    names = [name for name, _u, _b in workloads.END_TO_END]
    names += [name for name, _u, _b in workloads.PER_LAYER]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_layer_tables_cover_the_program():
    import inspect

    from repro.check import TOOLS
    from repro.experiments import REGISTRY

    assert sorted(REGISTRY) == sorted(workloads.EXPERIMENT_IDS)
    assert [name for name, *_rest in TOOLS] == list(workloads.STATIC_TIERS)
    listed = {
        (module, fn) for module, fns in workloads.ANALYSIS_FUNCTIONS.items() for fn in fns
    }
    called = {
        (value.__module__, value.__name__)
        for run_fn in REGISTRY.values()
        for value in vars(inspect.getmodule(run_fn)).values()
        if inspect.isfunction(value) and value.__module__.startswith("repro.analysis.")
    }
    assert called == listed


def test_benchmark_json_matches_the_code():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in contract["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == list(
        workloads.PER_LAYER
    )
    assert {w["name"] for w in contract["workloads"]} == set(workloads.WORKLOADS)


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------
def test_paper_fast_counts_failed_artifacts():
    from repro.experiments import ExperimentResult

    workload = workloads.PaperFast(ROOT, seed=0)

    def fake_run(experiment_id, **kwargs):
        if experiment_id == "table5":
            raise RuntimeError("injected")
        return ExperimentResult(experiment_id, "t", ["a"], [(1,)])

    workload.run_experiment = fake_run
    result = workload.run_pass(None)
    assert result.attempted == 13
    assert list(result.failures) == ["table5"]
    assert len(result.outputs) == 12


def test_static_check_counts_failed_tiers():
    workload = workloads.StaticCheck(ROOT, seed=0)

    def crash(argv):
        raise RuntimeError("injected")

    workload.tools = (
        ("lint", lambda argv: 0, [], False),
        ("audit", lambda argv: 1, [], True),
        ("vec", crash, [], True),
        ("flow", lambda argv: 0, [], True),
    )
    workload.files = workload.lines = 1
    result = workload.run_pass(None)
    assert result.attempted == 4
    assert sorted(result.failures) == ["audit", "vec"]


def test_sweep_counts_every_spec_of_a_crashed_sweep(tmp_path):
    workload = workloads.SweepFrontier(ROOT, seed=0)
    workload.scratch = tmp_path
    workload.reference = ("unused", [])

    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    workload.run_sweep = crash
    result = workload.run_pass(None)
    assert result.attempted == len(workload.plan.specs) + 1 == 1025
    assert len(result.failures) == result.attempted
    assert list(tmp_path.iterdir()) == []


class FakeWorkload:
    name = "fake"
    jobs = 1
    passes = 0

    def __init__(self, root, seed):
        pass

    def prepare(self):
        pass

    def run_pass(self, tracer):
        FakeWorkload.passes += 1
        failures = {"op1": "injected"} if FakeWorkload.passes == 1 else {}
        time.sleep(0.01)
        return workloads.PassResult(
            parts={"body": 0.01}, items=1, item_parts=("body",), attempted=4,
            failures=failures, outputs={"op2": "actual"},
        )


def test_run_counts_failures_and_reference_mismatches(monkeypatch, capsys):
    FakeWorkload.passes = 0
    monkeypatch.setitem(workloads.WORKLOADS, "fake", FakeWorkload)
    monkeypatch.setattr(run, "load_reference", lambda w, s: {"op2": "expected"})
    monkeypatch.setattr(run, "setup_seconds", lambda w, s: 0.5)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "fake", "--seconds", "0.05"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    passes = FakeWorkload.passes
    assert passes >= 2
    # op1 failed once; op2's digest differs from the reference every pass.
    assert result["attempted"] == 4 * passes
    assert result["failed"] == 1 + passes
    assert result["correct"] is False
    assert set(result["metrics"]) == {n for n, _u, _b in workloads.END_TO_END}


def test_run_refuses_a_tree_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "paper-full"]) == 2
    assert capsys.readouterr().out == ""
