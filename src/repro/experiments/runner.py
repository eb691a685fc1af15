"""CLI runner: regenerate paper artifacts from the command line.

Usage::

    repro-experiments                 # run everything at paper scale
    repro-experiments table5 figure7  # run selected artifacts
    repro-experiments --fast --seed 3 # smaller workloads
    repro-experiments figure6 --csv out/   # also dump figure series
    repro-experiments --fast --jobs 4 --cache .repro-cache  # parallel + cached
    repro-experiments sweep plan.json --jobs 4 --out artifact.json  # scenario sweep

The ``sweep`` subcommand fans a declarative scenario population (see
:mod:`repro.sweeps.plan` for the spec-file format) through the trial
engine and writes a deterministic sweep/frontier artifact; identical
plans re-run from a warm ``--cache`` with zero trial executions.

The ``--csv`` directory receives one file per figure series
(``<experiment>_<series>.csv``), ready for external plotting.
``--jobs N`` fans each experiment's independent trials over N worker
processes; results are bit-identical for every N.  ``--cache DIR``
keys finished results by (experiment, config, seed, code version) so
re-runs skip completed work; ``--no-cache`` bypasses the cache without
forgetting the directory flag.  ``--engine`` overrides the simulation
engine for simulator-backed experiments (``figure7``): ``graph`` runs
the grid scenario through the sparse CSR engine's exact-equivalence
bridge; experiments without an engine knob reject the override.
``--delay-model calibrated`` (graph engine only) swaps zero-delay
links for per-edge delays sampled from the measured propagation-delay
CDF (:data:`repro.netsim.latency.BITCOIN_PROPAGATION_2019`), quantized
to whole simulation ticks.

Failure semantics: ``--retries N`` re-runs a failed trial up to N times
with its original seed (a recovered run is bit-identical to an
undisturbed one), ``--trial-timeout S`` bounds each trial and respawns
hung or dead workers, and ``--max-failures N`` is a sweep-level budget:
once more than N trials have failed for good, the remaining experiments
are skipped and the runner exits with status 2, naming every failed
``(experiment_id, index, seed)``.  Within budget, a failed experiment
is reported and the sweep continues (exit status 1), so one poisoned
artifact no longer sinks the others.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..errors import ConfigurationError
from ..netsim.grid import ENGINES
from ..netsim.latency import DELAY_MODELS
from ..parallel import (
    METRICS,
    ExcessiveFailuresError,
    FailurePolicy,
    ResultCache,
    TrialExecutionError,
    TrialFailure,
)
from ..reporting.figures import series_to_csv
from ..sweeps import compute_frontier, load_specfile, run_sweep
from . import REGISTRY, run_experiment

__all__ = ["main"]


def _dump_series(result, directory: Path) -> List[Path]:
    """Write each of the result's series as a CSV file."""
    written = []
    for name, series in result.series.items():
        index = list(range(len(series)))
        csv_text = series_to_csv({name: list(series)}, index=index, index_name="tick")
        path = directory / f"{result.experiment_id}_{name}.csv"
        path.write_text(csv_text, encoding="utf-8")
        written.append(path)
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
        epilog=(
            "Scenario sweeps: 'repro-experiments sweep SPECFILE' runs a "
            "declarative spec-file sweep (own flags; see --help there)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"artifact ids to run (default: all). Known: {', '.join(sorted(REGISTRY))}",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--fast", action="store_true", help="reduced workloads (CI-sized)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per experiment's trial sweep (default: 1)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="on-disk result cache directory (reruns skip completed work)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache even when --cache is given",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="directory to dump figure series as CSV files",
    )
    # No argparse choices= on --engine/--delay-model: argparse would
    # reject a bad value during parse_args, *before* the experiment-id
    # whitelist runs, so a typo'd id plus a typo'd flag reported the
    # flag instead of the id.  Values are validated in main(), after
    # the ids.
    parser.add_argument(
        "--engine",
        default=None,
        metavar="ENGINE",
        help=(
            "simulation engine override for simulator-backed "
            f"experiments (one of: {', '.join(ENGINES)})"
        ),
    )
    parser.add_argument(
        "--delay-model",
        default=None,
        metavar="MODEL",
        help=(
            "calibrated propagation-delay model for simulator-backed "
            f"experiments (one of: {', '.join(sorted(DELAY_MODELS))}; "
            "requires --engine graph)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry each failed trial up to N times with its original seed",
    )
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-trial timeout in seconds (hung/dead workers are respawned)",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=None,
        metavar="N",
        help="abort the sweep (exit 2) once more than N trials have failed",
    )
    return parser


def _check_run_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject the worker and failure-budget values the runners would refuse.

    A usage error (exit 2) rather than a ``ConfigurationError`` from the
    engine: exit 1 means a trial failed.
    """
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.trial_timeout is not None and not args.trial_timeout > 0:
        parser.error("--trial-timeout must be > 0")
    if args.max_failures is not None and args.max_failures < 0:
        parser.error("--max-failures must be >= 0")


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    # Validation order is part of the CLI contract: experiment ids
    # first (the primary operands), then flag values — a typo'd id is
    # reported as such even when a flag value is also wrong.
    chosen = args.experiments or sorted(REGISTRY)
    unknown = [e for e in chosen if e not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiment ids: {', '.join(unknown)}")

    if args.engine is not None and args.engine not in ENGINES:
        parser.error(
            f"unknown engine '{args.engine}' (choose from {', '.join(ENGINES)})"
        )
    if args.delay_model is not None and args.delay_model not in DELAY_MODELS:
        parser.error(
            f"unknown delay model '{args.delay_model}' "
            f"(choose from {', '.join(sorted(DELAY_MODELS))})"
        )
    if args.delay_model is not None and args.engine != "graph":
        parser.error("--delay-model requires --engine graph")
    _check_run_flags(parser, args)
    # Registry artifacts aggregate over *all* trials, so experiments run
    # in raise mode (recovering via retries/timeouts); --max-failures is
    # a sweep-level budget applied across experiments below.
    policy = FailurePolicy(
        mode="raise", retries=args.retries, trial_timeout=args.trial_timeout
    )
    cache: Optional[ResultCache] = None
    if args.cache is not None and not args.no_cache:
        cache = ResultCache(args.cache)

    csv_dir: Optional[Path] = None
    if args.csv is not None:
        csv_dir = Path(args.csv)
        csv_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    failed_trials: List[TrialFailure] = []
    budget_exceeded = False
    for experiment_id in chosen:
        start = time.perf_counter()
        records_before = len(METRICS.records)
        failed_before = METRICS.failed()
        hits_before = cache.hits if cache is not None else 0
        try:
            result = run_experiment(
                experiment_id,
                seed=args.seed,
                fast=args.fast,
                jobs=args.jobs,
                cache=cache,
                policy=policy,
                engine=args.engine,
                delay_model=args.delay_model,
            )
        except TrialExecutionError as exc:
            failures += 1
            failed_trials.append(exc.failure)
            print(f"[FAIL] {experiment_id}: {exc}", file=sys.stderr)
        except ExcessiveFailuresError as exc:
            failures += 1
            failed_trials.extend(exc.failures)
            print(f"[FAIL] {experiment_id}: {exc}", file=sys.stderr)
        except Exception as exc:  # pragma: no cover - CLI surface
            failures += 1
            print(f"[FAIL] {experiment_id}: {exc}", file=sys.stderr)
        else:
            elapsed = time.perf_counter() - start
            print(result.render())
            if csv_dir is not None and result.series:
                written = _dump_series(result, csv_dir)
                print(f"(wrote {len(written)} series files to {csv_dir})")
            new_records = METRICS.records[records_before:]
            if cache is not None and cache.hits > hits_before:
                detail = "cache hit"
            else:
                workers = len({record.worker for record in new_records})
                detail = (
                    f"{len(new_records)} trial(s), {workers} worker(s), "
                    f"jobs={args.jobs}"
                )
            new_failed = METRICS.failed() - failed_before
            if new_failed:
                detail += f", {new_failed} failed trial(s)"
            print(f"({experiment_id} completed in {elapsed:.1f}s; {detail})")
            print()
            continue
        if args.max_failures is not None and len(failed_trials) > args.max_failures:
            budget_exceeded = True
            remaining = chosen[chosen.index(experiment_id) + 1 :]
            if remaining:
                print(
                    f"aborting sweep, skipping: {', '.join(remaining)}",
                    file=sys.stderr,
                )
            break
    if failed_trials:
        budget = (
            f" (budget: --max-failures {args.max_failures})"
            if budget_exceeded
            else ""
        )
        print(f"{len(failed_trials)} trial failure(s){budget}:", file=sys.stderr)
        for failure in failed_trials:
            print(f"  {failure.describe()}", file=sys.stderr)
    if cache is not None:
        print(cache.format_stats())
    if budget_exceeded:
        return 2
    return 1 if failures else 0


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep",
        description=(
            "Run a declarative scenario sweep from a JSON spec file "
            "(see repro.sweeps.plan for the format) and emit a "
            "deterministic sweep/frontier artifact."
        ),
    )
    parser.add_argument("specfile", metavar="SPECFILE", help="sweep plan JSON file")
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the sweep artifact (summaries + frontier) as JSON",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed (default: the plan's own seed)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the sweep's trials (default: 1); used only "
            "when the specs average 10^5 node-steps or more, or with --trial-timeout"
        ),
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="on-disk result cache directory (reruns skip completed specs)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache even when --cache is given",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry each failed spec up to N times with its original seed",
    )
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-spec timeout in seconds (hung/dead workers are respawned)",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=None,
        metavar="N",
        help=(
            "tolerate up to N failed specs (their summaries are null); "
            "exit 2 past the budget.  Default: fail the sweep on the "
            "first error"
        ),
    )
    return parser


def _sweep_main(argv: List[str]) -> int:
    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    _check_run_flags(parser, args)
    try:
        plan = load_specfile(args.specfile)
    except ConfigurationError as exc:
        parser.error(str(exc))
    seed = plan.seed if args.seed is None else args.seed
    # A sweep aggregates per-spec summaries (not one statistic over all
    # trials), so a bounded number of failed specs degrades gracefully
    # to null summaries under a skip policy when a budget is given.
    if args.max_failures is not None:
        policy = FailurePolicy(
            mode="skip",
            retries=args.retries,
            trial_timeout=args.trial_timeout,
            max_failures=args.max_failures,
        )
    else:
        policy = FailurePolicy(
            mode="raise", retries=args.retries, trial_timeout=args.trial_timeout
        )
    cache: Optional[ResultCache] = None
    if args.cache is not None and not args.no_cache:
        cache = ResultCache(args.cache)
    start = time.perf_counter()
    try:
        result = run_sweep(
            plan.specs, root_seed=seed, jobs=args.jobs, cache=cache, policy=policy
        )
    except ExcessiveFailuresError as exc:
        print(f"[FAIL] sweep '{plan.name}': {exc}", file=sys.stderr)
        return 2
    except TrialExecutionError as exc:
        print(f"[FAIL] sweep '{plan.name}': {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    artifact = result.to_artifact()
    artifact["name"] = plan.name
    if plan.frontier is not None:
        artifact["frontier"] = compute_frontier(
            result.specs, result.summaries, plan.frontier
        )
    if args.out is not None:
        out_path = Path(args.out)
        if out_path.parent != Path("."):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            json.dumps(artifact, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"(wrote sweep artifact to {out_path})")
    rate = len(plan.specs) / elapsed if elapsed > 0 else 0.0
    print(
        f"sweep '{plan.name}': {len(plan.specs)} spec(s) in {elapsed:.1f}s "
        f"({rate:.1f} specs/s); {result.executed} executed, "
        f"{result.cached} cached, {result.failed} failed"
    )
    if result.failures:
        for index, message in result.failures:
            print(f"  spec #{index} failed: {message}", file=sys.stderr)
    if cache is not None:
        print(cache.format_stats())
    return 1 if result.failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
