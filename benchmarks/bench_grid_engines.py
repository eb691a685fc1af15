"""Grid-engine performance trajectory: scalar vs the vectorized bridge.

Times the scalar grid engine and the graph engine's grid bridge
(``engine="graph"``) over the Figure 7 scenario at several sizes
and writes ``BENCH_netsim.json`` — the repo's netsim perf record, so
future optimizations are measured against a persisted baseline instead
of anecdotes.  Each entry records the engine, grid size, wall time,
steps/sec, and the per-phase split (mine / communicate / collect) from
:class:`repro.parallel.PhaseTimingCollector`.

Standalone (writes the full trajectory; used by the CI perf-smoke job
at size 15 and by releases at the documented sizes)::

    PYTHONPATH=src python benchmarks/bench_grid_engines.py \\
        --sizes 25 50 100 --steps 400 --out BENCH_netsim.json

Or opt-in via pytest: ``pytest -m bench benchmarks/bench_grid_engines.py``.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List

from repro.netsim.grid import GridConfig, make_simulator
from repro.parallel import PhaseTimingCollector

#: Seed scalar-engine wall times measured immediately before the
#: engine optimizations (400 steps of the Figure 7 scenario, same
#: machine as the committed BENCH_netsim.json), the baseline the
#: acceptance criterion's >= 10x is counted from.
SEED_REFERENCE_SECONDS = {25: 0.177, 50: 0.707, 100: 3.813}

DEFAULT_SIZES = (25, 50, 100)
DEFAULT_STEPS = 400


def _scenario(size: int, seed: int) -> GridConfig:
    """The Figure 7 attack scenario scaled to ``size``."""
    return GridConfig(
        size=size,
        failure_rate=0.10,
        steps_per_block=20,
        attacker_share=0.30,
        attacker_cell=(7 % size, 7 % size),
        attack_start_step=100,
        seed=seed,
    )


def time_engine(engine: str, size: int, steps: int, seed: int) -> Dict[str, object]:
    """One timed run; returns the BENCH record for (engine, size)."""
    phases = PhaseTimingCollector()
    sim = make_simulator(_scenario(size, seed), engine=engine, phase_metrics=phases)
    start = time.perf_counter()
    sim.run(steps)
    seconds = time.perf_counter() - start
    return {
        "name": f"grid[{engine}]-size{size}",
        "engine": engine,
        "size": size,
        "nodes": size * size,
        "steps": steps,
        "stats": {
            "wall_seconds": seconds,
            "steps_per_second": steps / seconds if seconds else 0.0,
        },
        "phases": {
            phase: entry["seconds"] for phase, entry in phases.summary().items()
        },
        "forks_seen": len(sim.fork_births),
    }


def run_benchmarks(
    sizes: List[int], steps: int, seed: int = 0
) -> Dict[str, object]:
    """Time both engines at every size; returns the BENCH document."""
    benchmarks = []
    for size in sizes:
        scalar = time_engine("scalar", size, steps, seed)
        graph = time_engine("graph", size, steps, seed)
        graph["stats"]["speedup_vs_scalar"] = (
            scalar["stats"]["wall_seconds"] / graph["stats"]["wall_seconds"]
        )
        seed_seconds = SEED_REFERENCE_SECONDS.get(size)
        if seed_seconds is not None and steps == DEFAULT_STEPS:
            scalar["stats"]["speedup_vs_seed"] = (
                seed_seconds / scalar["stats"]["wall_seconds"]
            )
            graph["stats"]["speedup_vs_seed"] = (
                seed_seconds / graph["stats"]["wall_seconds"]
            )
        benchmarks.extend([scalar, graph])
    return {
        "suite": "netsim-grid-engines",
        "scenario": "figure7-attack",
        "steps": steps,
        "seed": seed,
        "seed_reference_seconds": {
            str(size): secs
            for size, secs in SEED_REFERENCE_SECONDS.items()
            if size in sizes
        },
        "benchmarks": benchmarks,
    }


def write_bench_json(document: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _render(document: Dict[str, object]) -> str:
    lines = ["engine      size   wall(s)  steps/s   speedup-vs-scalar"]
    for record in document["benchmarks"]:
        stats = record["stats"]
        speedup = stats.get("speedup_vs_scalar")
        tail = f"{speedup:.1f}x" if speedup is not None else "-"
        lines.append(
            f"{record['engine']:<10} {record['size']:>5} "
            f"{stats['wall_seconds']:>9.3f} {stats['steps_per_second']:>8.0f}   {tail}"
        )
    return "\n".join(lines)


def test_grid_engine_benchmark(benchmark, tmp_path):
    """Pytest entry: the size-15 comparison (fast enough for -m bench)."""
    document = benchmark.pedantic(
        run_benchmarks, args=([15], DEFAULT_STEPS), rounds=1, iterations=1
    )
    out = tmp_path / "BENCH_netsim.json"
    write_bench_json(document, str(out))
    print()
    print(_render(document))
    by_engine = {record["engine"]: record for record in document["benchmarks"]}
    assert by_engine["scalar"]["stats"]["wall_seconds"] > 0
    assert by_engine["graph"]["stats"]["wall_seconds"] > 0
    assert by_engine["graph"]["forks_seen"] >= 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="grid sizes to time (default: 25 50 100)",
    )
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_netsim.json")
    args = parser.parse_args(argv)
    document = run_benchmarks(args.sizes, args.steps, args.seed)
    write_bench_json(document, args.out)
    print(_render(document))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
