"""The four benchmark workloads, their metrics and their output checks.

Each workload class does its set-up (imports, plan load) in
``__init__``, untimed preparation in :meth:`prepare`, and one timed
pass of its body in :meth:`run_pass`.  A pass returns a
:class:`PassResult`: the seconds each part of the body took, the work
it did, the operations it attempted, the ones that failed a check, the
output digests that :mod:`run` compares with ``reference.json``, and
the per-layer counts only the workload can see.

Every pass repeats the same parts on the same inputs, so :mod:`run`
takes each part's fastest time over the run's passes (see README.md
for why).  A pass is therefore kept to a few seconds: a run of
``run_seconds`` then holds several of them.

Why each workload is here (see README.md for the metric map):

- ``paper-fast``: the main user task, all 13 paper artifacts in the
  CLI's ``--fast`` mode, through the calls ``repro-experiments`` makes.
- ``graph-200k``: the Figure 7 scenario on a 2x10^5-node power-law
  graph, build included; only ``netsim.graph`` runs, so analysis,
  cache and dispatch are bypassed.
- ``sweep-frontier``: the committed 1024-spec sweep plan at
  ``jobs=2``, cold into a fresh cache then warm from it; the one
  workload where dispatch and the result cache carry the load.
- ``static-check``: the four static-analysis tiers CI runs on every
  change, over the engine package ``src/repro/netsim``; reported per
  analyzed line because that code changes with the engines.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from tracing import Tracer

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

EXPERIMENT_IDS = (
    "figure3", "figure4", "figure6", "figure7", "figure8",
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
)

#: Analysis entry points the artifacts call: module -> function names.
ANALYSIS_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "repro.analysis.centralization": (
        "cdf_points", "centralization_change", "coverage_count", "top_entities",
    ),
    "repro.analysis.characteristics": ("type_characteristics_table",),
    "repro.analysis.consensus": ("consensus_pruning_stats",),
    "repro.analysis.hijack": ("hijack_curve",),
    "repro.analysis.poolmap": ("map_pools",),
    "repro.analysis.synced": ("synced_as_table", "synced_band_lines"),
    "repro.analysis.timing": ("timing_table",),
    "repro.analysis.vulnerable": ("vulnerable_table",),
}

#: Attack classes: every public method is traced under ``attacks.<Class>``.
ATTACK_CLASSES = (
    ("repro.attacks.logical", "LogicalAttack"),
    ("repro.attacks.spatiotemporal", "SpatioTemporalPlan"),
)

GRAPH_PHASES = (
    "mine", "communicate.draw", "communicate.reconcile", "communicate.adopt", "collect",
)

STATIC_TIERS = ("lint", "audit", "vec", "flow")


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    seconds = [f"experiments.{eid}_s" for eid in EXPERIMENT_IDS]
    seconds += [
        "topology.build_paper_topology_s",
        "datagen.consensus_generate_s",
        "datagen.population_generate_s",
    ]
    seconds += sorted(
        f"analysis.{fn}_s" for fns in ANALYSIS_FUNCTIONS.values() for fn in fns
    )
    seconds += [f"attacks.{cls}_s" for _module, cls in ATTACK_CLASSES]
    seconds += ["netsim.grid.run_s", "reporting.render_s"]
    seconds += ["netsim.graph.power_law_s", "netsim.graph.init_s", "netsim.graph.run_s"]
    seconds += [f"netsim.graph.{phase}_s" for phase in GRAPH_PHASES]
    seconds += [
        "parallel.execute_s",
        "parallel.trial_busy_s",
        "parallel.cache.put_s",
        "parallel.cache.get_s",
        "scenarios.digest_s",
    ]
    seconds += [f"{tier}_s" for tier in STATIC_TIERS]
    seconds += ["audit.project_load_s", "audit.build_call_graph_s", "trace.wall_s"]
    counts = [
        "topology.build_paper_topology_calls",
        "datagen.consensus_generate_calls",
        "netsim.graph.edges",
        "netsim.graph.edge_visits",
        "netsim.graph.csr_bytes",
        "netsim.graph.forks_seen",
        "parallel.trials_executed",
        "parallel.trials_failed",
        "parallel.trials_retried",
        "parallel.cache.put_calls",
        "parallel.cache.bytes_written",
        "parallel.cache.get_calls",
        "parallel.cache.hits",
        "parallel.cache.misses",
        "scenarios.digest_calls",
        "audit.project_load_calls",
        "audit.build_call_graph_calls",
        "files_analyzed",
        "lines_analyzed",
        "trace.spans",
    ]
    units = {
        "netsim.graph.csr_bytes": "bytes",
        "parallel.cache.bytes_written": "bytes",
    }
    # Work done, useful outcomes and input sizes read "higher"; time,
    # repeated calls, failures and bytes read "lower".
    higher = {
        "netsim.graph.edges",
        "netsim.graph.edge_visits",
        "netsim.graph.forks_seen",
        "parallel.trials_executed",
        "parallel.cache.hits",
        "files_analyzed",
        "lines_analyzed",
    }
    return (
        tuple((name, "s", "lower") for name in seconds)
        + tuple(
            (name, units.get(name, "count"), "higher" if name in higher else "lower")
            for name in counts
        )
        + (
            ("parallel.worker_utilization", "ratio", "higher"),
            ("sweep.warm_specs_per_s", "1/s", "higher"),
        )
    )


#: (name, unit, better) of every per-layer metric, reported by the traced run.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = _per_layer()


def sha256_json(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Timing at the reference host speed
# ----------------------------------------------------------------------
#: Iterations of the calibration loop, and its time on an idle core of
#: the reference host (a shared 2-vCPU x86 VM, Python 3.11): the 10th
#: percentile of 1,295 readings there, against 3.5 ms at best and
#: 5.2 ms at the median while neighbours were busy.
CALIBRATION_ITERATIONS = 50_000
REFERENCE_LOOP_S = 0.0038


def host_speed() -> float:
    """This core's speed now, as a share of the reference host's.

    The best of three runs of a fixed pure-Python loop, which takes
    about 4 ms.  On a shared host the same code runs up to 1.5x slower
    for minutes at a time while a neighbour is busy; this reads that
    slowdown where the workload runs.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return REFERENCE_LOOP_S / best


def at_reference_speed(wall: float, cpu: float, speed: float) -> float:
    """``wall`` seconds with the on-CPU share rescaled to the reference host.

    ``cpu`` is the CPU time spent in the same interval; only that share
    runs slower on a slow host, so only it is rescaled, and the rest
    (sleeping, waiting on workers) is kept as measured.
    """
    cpu = min(cpu, wall)
    return wall - cpu + cpu * speed


class PartTimer:
    """Times the named parts of one pass at the reference host speed.

    The host speed is read before the first part and after each one;
    a part is rescaled by the mean of the readings around it.
    """

    def __init__(self, speed: Callable[[], float] = host_speed) -> None:
        self.speed = speed
        self.parts: Dict[str, float] = {}
        self._last: Optional[float] = None

    @contextmanager
    def part(self, name: str) -> Iterator[None]:
        if self._last is None:
            self._last = self.speed()
        before = self._last
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            self._last = self.speed()
            self.parts[name] = at_reference_speed(wall, cpu, (before + self._last) / 2)


@dataclass
class PassResult:
    """One timed pass of a workload body and the checks on its outputs."""

    #: Seconds of each part of the body, in order, at the reference
    #: host speed (see :class:`PartTimer`).
    parts: Dict[str, float]
    #: Work units done, and the parts whose time they took (``items_per_s``).
    items: float
    item_parts: Tuple[str, ...]
    attempted: int
    #: Failed or wrong operation -> reason.
    failures: Dict[str, str] = field(default_factory=dict)
    #: Operation -> digest, compared with ``reference.json`` when the
    #: seed has a recorded entry.
    outputs: Dict[str, str] = field(default_factory=dict)
    #: Per-layer values only the workload can compute.
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.parts.values())


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics name."""
    from repro.audit.callgraph import build_call_graph
    from repro.audit.project import Project
    from repro.datagen.consensus import ConsensusDynamicsGenerator
    from repro.datagen.population import PopulationGenerator
    from repro.netsim.graph import GraphSimulatorVec, GraphSpec
    from repro.netsim.grid import GridSimulator
    from repro.parallel import ResultCache, TrialEngine
    from repro.scenarios.spec import ScenarioSpec
    from repro.topology.builder import build_paper_topology

    tracer.patch_function(build_paper_topology, "topology.build_paper_topology")
    tracer.patch_method(
        ConsensusDynamicsGenerator, "generate", "datagen.consensus_generate"
    )
    tracer.patch_method(PopulationGenerator, "generate", "datagen.population_generate")
    for module_name, names in ANALYSIS_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for fn_name in names:
            tracer.patch_function(getattr(module, fn_name), f"analysis.{fn_name}")
    for module_name, cls_name in ATTACK_CLASSES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not (
                callable(value) or isinstance(value, (classmethod, staticmethod))
            ):
                continue
            tracer.patch_method(cls, attr, f"attacks.{cls_name}")
    tracer.patch_method(GridSimulator, "run", "netsim.grid.run")
    tracer.patch_method(GraphSpec, "power_law", "netsim.graph.power_law")
    tracer.patch_method(GraphSimulatorVec, "__init__", "netsim.graph.init")
    tracer.patch_method(GraphSimulatorVec, "run", "netsim.graph.run")
    tracer.patch_method(TrialEngine, "run", "parallel.execute")
    tracer.patch_method(ResultCache, "get", "parallel.cache.get")
    tracer.patch_method(ResultCache, "put", "parallel.cache.put")
    tracer.patch_method(ScenarioSpec, "digest", "scenarios.digest")
    tracer.patch_method(Project, "load", "audit.project_load")
    tracer.patch_function(build_call_graph, "audit.build_call_graph")


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# paper-fast
# ----------------------------------------------------------------------
class PaperFast:
    name = "paper-fast"
    jobs = 1

    def __init__(self, root: Path, seed: int) -> None:
        from repro.experiments import REGISTRY, ExperimentResult, run_experiment
        from repro.parallel import FailurePolicy

        self.seed = seed
        self.ids = sorted(REGISTRY)
        self.run_experiment = run_experiment
        self.result_type = ExperimentResult
        # The policy the CLI builds from its defaults.
        self.policy = FailurePolicy(mode="raise", retries=0, trial_timeout=None)

    def prepare(self) -> None:
        pass

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        failures: Dict[str, str] = {}
        payloads: Dict[str, Dict[str, Any]] = {}
        timer = PartTimer()
        for experiment_id in self.ids:
            try:
                with timer.part(experiment_id):
                    with _span(tracer, f"experiments.{experiment_id}"):
                        result = self.run_experiment(
                            experiment_id,
                            seed=self.seed,
                            fast=True,
                            jobs=1,
                            cache=None,
                            policy=self.policy,
                        )
                    with _span(tracer, "reporting.render"):
                        text = result.render()
                        payloads[experiment_id] = result.to_dict()
            except Exception as exc:  # one failed artifact must not hide the rest
                failures[experiment_id] = f"{type(exc).__name__}: {exc}"
                continue
            if not text.strip():
                failures[experiment_id] = "empty render"
        outputs = {}
        for experiment_id, payload in payloads.items():
            outputs[experiment_id] = sha256_json(payload)
            rebuilt = self.result_type.from_dict(payload).to_dict()
            if sha256_json(rebuilt) != outputs[experiment_id]:
                failures.setdefault(experiment_id, "to_dict/from_dict round trip differs")
        return PassResult(
            parts=timer.parts,
            items=len(self.ids),
            item_parts=tuple(timer.parts),
            attempted=len(self.ids),
            failures=failures,
            outputs=outputs,
        )


# ----------------------------------------------------------------------
# graph-200k
# ----------------------------------------------------------------------
class Graph200K:
    name = "graph-200k"
    jobs = 1
    num_nodes = 200_000
    #: The run stops after this many communication steps that did work.
    #: Once every node holds the best chain, a step is skipped almost
    #: for free, and how many steps do work in a fixed number of steps
    #: varies 1.5x between graph seeds; a fixed count of working steps
    #: keeps the work of a pass the same on every seed.
    active_steps = 120
    #: Working steps per timed part of the pass.
    chunk = 10
    #: A run that has not done its working steps by then has failed.
    max_steps = 4000

    def __init__(self, root: Path, seed: int) -> None:
        from repro.netsim.graph import GraphConfig, GraphSpec
        from repro.netsim.grid import make_simulator
        from repro.parallel import PhaseTimingCollector

        self.seed = seed
        self.graph_config = GraphConfig
        self.graph_spec = GraphSpec
        self.make_simulator = make_simulator
        self.phase_collector = PhaseTimingCollector

    def prepare(self) -> None:
        pass

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        # The engine's own hook: it records a "communicate.reconcile"
        # phase on every step that did work.
        phases = self.phase_collector()
        failures: Dict[str, str] = {}
        timer = PartTimer()
        steps = 0
        try:
            # The Figure 7 attack scenario on a synthetic Bitcoin-like graph,
            # as in benchmarks/bench_graph_engine.py's power-law tiers.  The
            # seed picks the graph; the simulation seed stays 0.
            with timer.part("build"):
                spec = self.graph_spec.power_law(
                    self.num_nodes, seed=self.seed, rng_protocol=2
                )
            with timer.part("init"):
                config = self.graph_config(
                    spec=spec,
                    failure_rate=0.10,
                    steps_per_block=20,
                    attacker_share=0.30,
                    attacker_node=7,
                    attack_start_step=100,
                    seed=0,
                )
                sim = self.make_simulator(config, phase_metrics=phases)
            for done in range(0, self.active_steps, self.chunk):
                with timer.part(f"active{done}"):
                    while phases.calls("communicate.reconcile") < done + self.chunk:
                        if steps == self.max_steps:
                            raise RuntimeError(f"{done} working steps in {steps} steps")
                        sim.run(1)
                        steps += 1
        except Exception as exc:
            failures["run"] = f"{type(exc).__name__}: {exc}"
            return PassResult(timer.parts, 0, tuple(timer.parts), 1, failures)

        heights = sim.heights
        labels = sim.labels
        births = dict(sim.fork_births)
        digest = hashlib.sha256()
        digest.update(json.dumps(heights, separators=(",", ":")).encode("ascii"))
        digest.update(b"\0" + "\n".join(labels).encode("utf-8"))
        digest.update(b"\0" + json.dumps(births, sort_keys=True).encode("utf-8"))
        if len(heights) != self.num_nodes or min(heights) < 0 or max(heights) < 1:
            failures["run"] = "heights out of range"
        elif not set(labels) <= set(births):
            failures["run"] = "a node holds a fork with no recorded birth"

        edges = spec.num_edges
        layer: Dict[str, float] = {
            "netsim.graph.edges": edges,
            "netsim.graph.edge_visits": edges * self.active_steps,
            "netsim.graph.csr_bytes": spec.indptr.nbytes + spec.indices.nbytes,
            "netsim.graph.forks_seen": len(births),
        }
        for phase in GRAPH_PHASES:
            layer[f"netsim.graph.{phase}_s"] = phases.seconds(phase)
        return PassResult(
            parts=timer.parts,
            items=self.active_steps,
            item_parts=tuple(timer.parts),
            attempted=1,
            failures=failures,
            outputs={"run": digest.hexdigest()},
            layer=layer,
        )


# ----------------------------------------------------------------------
# sweep-frontier
# ----------------------------------------------------------------------
class SweepFrontier:
    name = "sweep-frontier"
    plan_path = "examples/sweeps/frontier_fast.json"
    jobs = 2

    def __init__(self, root: Path, seed: int) -> None:
        from repro.parallel import FailurePolicy, ResultCache
        from repro.sweeps import compute_frontier, load_specfile, run_sweep

        self.seed = seed
        self.scratch = root / "perfbench" / ".out"
        self.plan = load_specfile(root / self.plan_path)
        self.run_sweep = run_sweep
        self.compute_frontier = compute_frontier
        self.result_cache = ResultCache
        # The policy the CLI's ``sweep`` subcommand builds by default.
        self.policy = FailurePolicy(mode="raise", retries=0, trial_timeout=None)
        self.reference: Optional[Tuple[str, List[str]]] = None

    def _artifact(self, result) -> Dict[str, Any]:
        artifact = result.to_artifact()
        artifact["name"] = self.plan.name
        if self.plan.frontier is not None:
            artifact["frontier"] = self.compute_frontier(
                result.specs, result.summaries, self.plan.frontier
            )
        return artifact

    def prepare(self) -> None:
        """The ``jobs=1`` uncached run every pass must match byte for byte."""
        result = self.run_sweep(
            self.plan.specs, root_seed=self.seed, jobs=1, policy=self.policy
        )
        self.reference = (
            sha256_json(self._artifact(result)),
            [sha256_json(summary) for summary in result.summaries],
        )

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        assert self.reference is not None, "prepare() first"
        specs = self.plan.specs
        self.scratch.mkdir(parents=True, exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix="sweep-cache-", dir=self.scratch))
        failures: Dict[str, str] = {}
        timer = PartTimer()
        try:
            cache = self.result_cache(cache_dir)
            with timer.part("cold"):
                cold = self.run_sweep(
                    specs, root_seed=self.seed, jobs=self.jobs, cache=cache, policy=self.policy
                )
                cold_artifact = self._artifact(cold)
            with timer.part("warm"):
                warm = self.run_sweep(
                    specs, root_seed=self.seed, jobs=self.jobs, cache=cache, policy=self.policy
                )
                warm_artifact = self._artifact(warm)
            bytes_written = sum(p.stat().st_size for p in cache_dir.glob("*.json"))
        except Exception as exc:  # a failed sweep fails every spec in it
            reason = f"{type(exc).__name__}: {exc}"
            failures = {f"spec:{index}": reason for index in range(len(specs))}
            failures["artifact"] = reason
            return PassResult(
                timer.parts, 0, tuple(timer.parts), len(specs) + 1, failures
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        artifact_digest, summary_digests = self.reference
        for index, (a, b) in enumerate(zip(cold.summaries, warm.summaries)):
            if sha256_json(a) != summary_digests[index]:
                failures[f"spec:{index}"] = "cold jobs=2 summary differs from jobs=1"
            elif sha256_json(b) != summary_digests[index]:
                failures[f"spec:{index}"] = "warm summary differs from jobs=1"
        cold_digest = sha256_json(cold_artifact)
        if cold_digest != artifact_digest:
            failures["artifact"] = "cold jobs=2 artifact differs from jobs=1"
        elif sha256_json(warm_artifact) != artifact_digest:
            failures["artifact"] = "warm artifact differs from jobs=1"
        elif warm.executed != 0 or warm.cached != len(specs):
            failures["artifact"] = f"warm pass executed {warm.executed} trial(s)"

        layer: Dict[str, float] = {
            "parallel.cache.bytes_written": bytes_written,
            "parallel.cache.hits": cache.hits,
            "parallel.cache.misses": cache.misses,
            "sweep.warm_specs_per_s": len(specs) / timer.parts["warm"],
        }
        return PassResult(
            parts=timer.parts,
            items=len(specs),
            item_parts=("cold",),
            attempted=len(specs) + 1,
            failures=failures,
            outputs={"artifact": cold_digest},
            layer=layer,
        )


# ----------------------------------------------------------------------
# static-check
# ----------------------------------------------------------------------
def count_python(paths: List[Path]) -> Tuple[int, int]:
    """(files, lines) over every ``*.py`` under ``paths``."""
    files = lines = 0
    for base in paths:
        candidates = [base] if base.is_file() else sorted(base.rglob("*.py"))
        for path in candidates:
            files += 1
            with open(path, "rb") as fh:
                lines += sum(1 for _ in fh)
    return files, lines


class StaticCheck:
    name = "static-check"
    jobs = 1
    #: The engine package: the code vec and flow exist to check.  The
    #: whole tree takes over 20 s a pass, too long to repeat in a run.
    paths = ["src/repro/netsim"]

    def __init__(self, root: Path, seed: int) -> None:
        from repro.check import TOOLS

        self.root = root
        self.tools = TOOLS

    def prepare(self) -> None:
        files, lines = count_python([self.root / p for p in self.paths])
        # Every tier reads the same input.
        self.files, self.lines = files * len(self.tools), lines * len(self.tools)

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        failures: Dict[str, str] = {}
        timer = PartTimer()
        # The committed manifests cover the whole tree, so no tier is
        # gated on one here: each must find nothing in the engine package.
        argv = self.paths + ["--format", "text"]
        for name, entry, _base, _gated in self.tools:
            buffer = io.StringIO()
            try:
                with timer.part(name), _span(tracer, name), redirect_stdout(buffer):
                    status = entry(list(argv))
            except Exception as exc:
                failures[name] = f"{type(exc).__name__}: {exc}"
                continue
            if status != 0:
                tail = buffer.getvalue().strip().splitlines()[-3:]
                failures[name] = f"exit {status}: {' | '.join(tail)}"
        return PassResult(
            parts=timer.parts,
            items=self.lines,
            item_parts=tuple(timer.parts),
            attempted=len(self.tools),
            failures=failures,
            layer={"files_analyzed": self.files, "lines_analyzed": self.lines},
        )


WORKLOADS: Dict[str, Callable[[Path, int], Any]] = {
    cls.name: cls for cls in (PaperFast, Graph200K, SweepFrontier, StaticCheck)
}
