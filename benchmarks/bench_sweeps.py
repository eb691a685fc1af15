"""Sweep-driver throughput: cold fan-out and warm cache hit-rate.

Times :func:`repro.sweeps.run_sweep` over the repo's reference sweep
population (the 1024-spec ``examples/sweeps/frontier_fast.json`` plan)
and writes ``BENCH_sweeps.json`` — the committed perf record for the
scenario-sweep subsystem.  Three tiers:

- ``sweep-cold-j1`` — serial cold run (the per-scenario floor);
- ``sweep-cold-j4`` — cold run through a 4-worker trial engine (a
  --fast scenario costs about as much as its round trip to a worker,
  so this tier tracks the pool's per-trial dispatch cost rather than
  showing a speed-up over serial);
- ``sweep-warm`` — re-run against a fully warm :class:`ResultCache`
  (must execute zero trials; throughput is pure key-lookup speed).

Regression floor: ``--floor-against BENCH_sweeps.json`` compares each
tier's specs/sec against the committed record and exits 3 when any
falls below ``--floor-ratio`` (default 0.5) of it, or when no tier has
a committed counterpart to compare — the CI sweep-smoke gate.

Standalone (the committed record uses the defaults)::

    PYTHONPATH=src python benchmarks/bench_sweeps.py --out BENCH_sweeps.json

Or opt-in via pytest: ``pytest -m bench benchmarks/bench_sweeps.py``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List

from repro.parallel import ResultCache
from repro.sweeps import load_specfile, run_sweep

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_PLAN = REPO_ROOT / "examples" / "sweeps" / "frontier_fast.json"

#: Exit status of a failed --floor-against regression check.
FLOOR_EXIT = 3


def _record(name: str, num_specs: int, seconds: float, **extra) -> Dict[str, object]:
    return {
        "name": name,
        "num_specs": num_specs,
        "stats": {
            "wall_seconds": seconds,
            "specs_per_second": num_specs / seconds if seconds else 0.0,
        },
        **extra,
    }


def run_benchmarks(
    plan_path: Path = DEFAULT_PLAN,
    limit: int = 0,
    tmp_dir: Path = Path("/tmp"),
) -> Dict[str, object]:
    """Time cold serial, cold jobs=4, and warm-cache sweep runs."""
    plan = load_specfile(plan_path)
    specs = list(plan.specs[:limit]) if limit else list(plan.specs)
    records: List[Dict[str, object]] = []

    start = time.perf_counter()
    serial = run_sweep(specs, root_seed=plan.seed, jobs=1)
    records.append(
        _record("sweep-cold-j1", len(specs), time.perf_counter() - start)
    )

    start = time.perf_counter()
    fanned = run_sweep(specs, root_seed=plan.seed, jobs=4)
    records.append(
        _record("sweep-cold-j4", len(specs), time.perf_counter() - start)
    )
    if fanned.summaries != serial.summaries:  # pragma: no cover - invariant
        raise AssertionError("jobs=4 sweep diverged from serial")

    cache_dir = Path(tmp_dir) / "bench_sweeps_cache"
    cache = ResultCache(cache_dir)
    run_sweep(specs, root_seed=plan.seed, cache=cache)
    start = time.perf_counter()
    warm = run_sweep(specs, root_seed=plan.seed, cache=cache)
    records.append(
        _record(
            "sweep-warm",
            len(specs),
            time.perf_counter() - start,
            executed=warm.executed,
            cached=warm.cached,
            hit_rate=warm.cached / len(specs),
        )
    )
    if warm.executed:  # pragma: no cover - invariant
        raise AssertionError("warm sweep executed trials")

    return {
        "suite": "scenario-sweeps",
        "plan": plan.name,
        "num_specs": len(specs),
        "seed": plan.seed,
        "benchmarks": records,
    }


def check_floor(
    document: Dict[str, object],
    committed: Dict[str, object],
    ratio: float,
) -> List[str]:
    """Specs/sec regressions vs. the committed record, by tier name.

    Tiers absent from either side are ignored, but a run that shares
    no tier with the committed record fails: a floor that compared
    nothing gates nothing.
    """
    baseline = {
        record["name"]: record["stats"]["specs_per_second"]
        for record in committed.get("benchmarks", [])
    }
    timed = [r for r in document["benchmarks"] if r["name"] in baseline]
    if not timed:
        return ["no timed tier has a committed counterpart; nothing compared"]
    failures = []
    for record in timed:
        name = record["name"]
        got = record["stats"]["specs_per_second"]
        floor = ratio * baseline[name]
        if got < floor:
            failures.append(
                f"{name}: {got:.0f} specs/s < floor {floor:.0f} "
                f"({ratio:.2f} x committed {baseline[name]:.0f})"
            )
    return failures


def write_bench_json(document: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _render(document: Dict[str, object]) -> str:
    lines = ["name             specs    wall(s)   specs/s"]
    for record in document["benchmarks"]:
        stats = record["stats"]
        lines.append(
            f"{record['name']:<14} {record['num_specs']:>7} "
            f"{stats['wall_seconds']:>9.3f} {stats['specs_per_second']:>9.0f}"
        )
    return "\n".join(lines)


def test_sweeps_benchmark(benchmark, tmp_path):
    """Pytest entry: a 64-spec slice (fast enough for -m bench)."""
    document = benchmark.pedantic(
        run_benchmarks,
        kwargs={"limit": 64, "tmp_dir": tmp_path},
        rounds=1,
        iterations=1,
    )
    out = tmp_path / "BENCH_sweeps.json"
    write_bench_json(document, str(out))
    print()
    print(_render(document))
    cold_j1, cold_j4, warm = document["benchmarks"]
    assert cold_j1["name"] == "sweep-cold-j1"
    assert cold_j4["name"] == "sweep-cold-j4"
    assert warm["executed"] == 0 and warm["hit_rate"] == 1.0
    for record in document["benchmarks"]:
        assert record["stats"]["wall_seconds"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--plan", default=str(DEFAULT_PLAN),
        help="sweep plan file to time (default: the committed example)",
    )
    parser.add_argument(
        "--limit", type=int, default=0,
        help="only time the first N specs (default: all)",
    )
    parser.add_argument("--out", default="BENCH_sweeps.json")
    parser.add_argument(
        "--floor-against", metavar="PATH", default=None,
        help="committed BENCH json to gate specs/sec against (exit 3 on "
        "regression)",
    )
    parser.add_argument(
        "--floor-ratio", type=float, default=0.5,
        help="minimum fraction of the committed specs/sec (default: 0.5)",
    )
    args = parser.parse_args(argv)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        document = run_benchmarks(
            Path(args.plan), limit=args.limit, tmp_dir=Path(tmp)
        )
    write_bench_json(document, args.out)
    print(_render(document))
    print(f"(wrote {args.out})")
    if args.floor_against:
        with open(args.floor_against, encoding="utf-8") as fh:
            committed = json.load(fh)
        failures = check_floor(document, committed, args.floor_ratio)
        if failures:
            for message in failures:
                print(f"FLOOR REGRESSION: {message}")
            return FLOOR_EXIT
        print(
            f"floor check vs {args.floor_against} passed "
            f"(ratio {args.floor_ratio})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
