"""Run one benchmark workload, check its outputs and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper-fast --seed 0 --seconds 20 --trace 0

Workloads: ``paper-fast``, ``graph-200k``, ``sweep-frontier`` and
``static-check`` (see README.md).  ``--seed`` is the workload seed: the
experiment seed, the graph seed or the sweep root seed.  The body is
timed in passes until ``--seconds`` of passes have elapsed (at least
one pass).  Each pass times the same parts (artifacts, step chunks,
sweep passes, tiers) on the same inputs.

``--trace 0`` reports the end-to-end metrics: the wall time of one
pass, summed part by part from each part's fastest time in the run,
work items per second over that time, peak RSS of this process plus
its largest child, and the median set-up time of several fresh
interpreters that import the workload and load its inputs, started
between passes.  ``--trace 1`` wraps every layer entry point, reports
the per-layer metrics and writes the spans to ``perfbench/.out/``.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
REFERENCE = HERE / "reference.json"

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_SAMPLES = 5

#: No new pass starts if the last one would end the run past this.
RUN_BUDGET_S = 140.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import the workload and load its inputs, then exit (times setup_s)",
    )
    return parser


def setup_seconds(workload: str, seed: int) -> float:
    """Time of a fresh interpreter doing the workload's set-up.

    Like a pass's parts, it is read at the reference host speed: the
    child's CPU time is rescaled by the host speed around it.  The
    cores of a shared host slow down independently, so the child runs
    on the core where that speed is read.
    """
    from workloads import at_reference_speed, host_speed

    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})  # the child inherits it
    try:
        before = host_speed()
        used = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True)
        wall = time.perf_counter() - start
        now = resource.getrusage(resource.RUSAGE_CHILDREN)
        after = host_speed()
    finally:
        os.sched_setaffinity(0, allowed)
    cpu = (now.ru_utime - used.ru_utime) + (now.ru_stime - used.ru_stime)
    return at_reference_speed(wall, cpu, (before + after) / 2)


def best_parts(results) -> Dict[str, float]:
    """Each part's fastest time over the passes that ran it.

    Every pass repeats the same work, so a slower repeat of a part
    measures the host (a busy neighbour, a slow spell), not the
    program; ``timeit`` reads its repeats the same way.
    """
    best: Dict[str, float] = {}
    for result in results:
        for part, seconds in result.parts.items():
            best[part] = min(seconds, best.get(part, seconds))
    return best


def children_peak_kb() -> int:
    """Peak RSS of the largest child waited for so far, in KiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(children_kb: int) -> float:
    """Peak RSS of this process plus ``children_kb``, in MiB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kb) / 1024.0


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if not REFERENCE.is_file():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def layer_metrics(tracer, result, trials, jobs: int, per_layer) -> Dict[str, float]:
    """Per-layer values for one traced pass (0 for layers not entered).

    ``trials`` are the trial records and final failures the engine
    filed during the pass.
    """
    summary = tracer.summary()
    values: Dict[str, float] = {}
    for name, _unit, _better in per_layer:
        value = 0.0
        if name.endswith("_s") and name[:-2] in summary:
            value = summary[name[:-2]]["inclusive_s"]
        elif name.endswith("_calls") and name[: -len("_calls")] in summary:
            value = summary[name[: -len("_calls")]]["calls"]
        values[name] = value
    records, failures = trials
    values["parallel.trial_busy_s"] = sum(record.seconds for record in records)
    values["parallel.trials_executed"] = len(records)
    values["parallel.trials_failed"] = len(failures)
    # Retries that later succeeded are not visible from outside the
    # engine; this counts the extra attempts of trials that failed.
    values["parallel.trials_retried"] = sum(f.attempts - 1 for f in failures)
    if values["parallel.execute_s"] > 0:
        values["parallel.worker_utilization"] = values["parallel.trial_busy_s"] / (
            jobs * values["parallel.execute_s"]
        )
    values["trace.spans"] = len(tracer.spans)
    values.update(result.layer)
    return values


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer
    from workloads import END_TO_END, PER_LAYER, WORKLOADS, instrument

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_only:
        return 0
    from repro.parallel import METRICS

    workload.prepare()
    reference = load_reference(args.workload, args.seed)

    results = []
    layers: List[Dict[str, float]] = []
    spans: Dict[str, Dict[str, float]] = {}
    setup: List[float] = []
    children_kb: Optional[int] = None
    attempted = failed = 0
    timed = 0.0
    while True:
        gc.collect()  # every pass starts from the same heap state
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            instrument(tracer)
            trials_before = (len(METRICS.records), len(METRICS.failures))
        started = time.perf_counter()
        try:
            result = workload.run_pass(tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        took = time.perf_counter() - started
        for op, digest in (reference or {}).items():
            if result.outputs.get(op) != digest:
                result.failures.setdefault(op, "output digest differs from reference.json")
        for op, reason in sorted(result.failures.items()):
            print(f"FAILED {op}: {reason}")
        attempted += result.attempted
        failed += len(result.failures)
        results.append(result)
        if tracer is not None:
            trials = (
                METRICS.records[trials_before[0]:],
                METRICS.failures[trials_before[1]:],
            )
            layers.append(
                layer_metrics(tracer, result, trials, workload.jobs, PER_LAYER)
            )
            spans = tracer.summary()
            OUT.mkdir(exist_ok=True)
            tracer.write(
                str(OUT / f"trace-{args.workload}-seed{args.seed}-pass{len(results)}.json")
            )
        timed += took
        if timed >= args.seconds or timed + took > RUN_BUDGET_S:
            break
        if not args.trace and len(setup) < SETUP_SAMPLES:
            # Between passes, so the probes are spread over the run.
            if children_kb is None:
                children_kb = children_peak_kb()  # the workers, not the probes
            setup.append(setup_seconds(args.workload, args.seed))

    best = best_parts(results)
    wall = sum(best.values())
    item_seconds = sum(best[part] for part in results[-1].item_parts)
    metrics: Dict[str, Dict[str, float]] = {}
    if args.trace:
        for name, unit, _better in PER_LAYER:
            value = statistics.median(layer[name] for layer in layers)
            if name == "trace.wall_s":
                value = wall  # the same rule as the untraced wall_s
            metrics[name] = {"value": value, "unit": unit}
    else:
        if children_kb is None:
            children_kb = children_peak_kb()
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds(args.workload, args.seed))
        values = {
            "wall_s": wall,
            "items_per_s": results[-1].items / item_seconds,
            "peak_rss_mb": peak_rss_mb(children_kb),
            "setup_s": statistics.median(setup),
        }
        for name, unit, _better in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}

    note = "recorded" if reference else "not recorded; invariant checks only"
    print(
        f"workload {args.workload}, seed {args.seed} (reference {note}), "
        f"{len(results)} pass(es), trace={args.trace}"
    )
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'failed_fraction':<40} {failed / attempted:>16.6g} ({failed}/{attempted})")
    if spans:
        print("  self time by span, last pass (calls, inclusive s, self s):")
        ranked = sorted(spans.items(), key=lambda item: -item[1]["self_s"])
        for name, entry in ranked[:12]:
            print(
                f"    {name:<38} {entry['calls']:>7} "
                f"{entry['inclusive_s']:>10.4f} {entry['self_s']:>10.4f}"
            )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
