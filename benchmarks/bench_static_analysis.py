"""Smoke benchmark: the static-analysis gates stay cheap enough for CI.

``repro-vec --check-manifest`` runs on every push; the gate is only
viable while a full analysis of ``src`` — both passes plus the manifest
section derivation and drift check against ``ANALYSIS_MANIFEST.json``
— finishes well inside interactive time.
This benchmark times exactly that analysis and asserts it lands under a
30 s budget, so a quadratic blow-up in the call-graph closure or the
dtype interpreter fails loudly here instead of slowly rotting CI.  The
lint and audit runs are timed alongside for context (informational, no
budget).  Each tool runs over its CI scope: lint over what
``repro-check`` lints (``src``, ``benchmarks``, ``tests``, ``examples``;
424 files), the others over ``src``.  On a 2-vCPU VM (Python 3.11) one
run of each tool on its own takes about: lint 2.4 s, audit 1.9 s,
vec 1.1 s, flow 2.9 s.  ``repro-check`` shares one parse and one
project among all four (``repro-check --check-manifests``: about 4-5 s
for all four tiers).

Runnable from tier-1 environments without pytest::

    PYTHONPATH=src python benchmarks/bench_static_analysis.py \
        --out BENCH_static_analysis.json

or, as CI's static-analysis job runs the two budget checks::

    python -m pytest -m bench -q benchmarks/bench_static_analysis.py
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.audit import run_audit
from repro.check import TOOLS
from repro.flow import run_flow
from repro.flow.rules import build_flow_section
from repro.lint import lint_paths
from repro.lint.manifest import MANIFEST_FILE, diff_section
from repro.vec import run_vec
from repro.vec.rules import build_vec_section

__all__ = ["main", "time_analyzers"]

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
MANIFEST = REPO_ROOT / MANIFEST_FILE
#: What CI's ``repro-check`` lints: the lint tier's base argv.
LINT_PATHS = [
    REPO_ROOT / path for name, _entry, base, _gated in TOOLS if name == "lint"
    for path in base
]

#: Wall-clock budget for one full ``repro-vec`` analysis of ``src``.
VEC_BUDGET_SECONDS = 30.0

#: Wall-clock budget for one full ``repro-flow`` analysis of ``src``.
#: Same rationale: the fixpoint is quadratic-ish in call-graph size, so
#: a blow-up must fail here before it rots the CI gate.
FLOW_BUDGET_SECONDS = 30.0


def _timed_vec() -> Dict[str, object]:
    start = time.perf_counter()
    report = run_vec([SRC])
    manifest = build_vec_section(report)
    drift = diff_section("vec", manifest, MANIFEST)
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "findings": len(report.findings),
        "sanctioned": len(report.suppressed),
        "hot_functions": len(manifest["hot_functions"]),
        "manifest_current": drift is None,
    }


def _timed_flow() -> Dict[str, object]:
    start = time.perf_counter()
    report = run_flow([SRC])
    manifest = build_flow_section(report)
    drift = diff_section("flow", manifest, MANIFEST)
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "findings": len(report.findings),
        "sanctioned": len(report.suppressed),
        "cache_boundaries": len(manifest["cache_boundaries"]),
        "manifest_current": drift is None,
    }


def time_analyzers() -> Dict[str, Dict[str, object]]:
    """One timed pass per analyzer over its CI scope."""
    timings: Dict[str, Dict[str, object]] = {
        "repro-vec": _timed_vec(),
        "repro-flow": _timed_flow(),
    }

    start = time.perf_counter()
    lint_report = lint_paths(LINT_PATHS)
    timings["repro-lint"] = {
        "seconds": time.perf_counter() - start,
        "findings": sum(len(f.findings) for f in lint_report.files),
    }

    start = time.perf_counter()
    audit_report = run_audit([SRC])
    timings["repro-audit"] = {
        "seconds": time.perf_counter() - start,
        "findings": len(audit_report.findings),
    }
    return timings


def test_vec_analysis_fits_the_ci_budget():
    vec = _timed_vec()
    assert vec["seconds"] < VEC_BUDGET_SECONDS, (
        f"repro-vec took {vec['seconds']:.1f}s over src; the CI gate "
        f"assumes < {VEC_BUDGET_SECONDS:.0f}s"
    )
    # The smoke doubles as a gate sanity check: a clean tree and a
    # current manifest are what CI's exit-0 path depends on.
    assert vec["findings"] == 0
    assert vec["manifest_current"]


def test_flow_analysis_fits_the_ci_budget():
    flow = _timed_flow()
    assert flow["seconds"] < FLOW_BUDGET_SECONDS, (
        f"repro-flow took {flow['seconds']:.1f}s over src; the CI gate "
        f"assumes < {FLOW_BUDGET_SECONDS:.0f}s"
    )
    assert flow["findings"] == 0
    assert flow["manifest_current"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Runtime smoke benchmark for the static-analysis gates."
    )
    parser.add_argument(
        "--out",
        default="BENCH_static_analysis.json",
        help="output JSON path (pytest-benchmark-compatible shape)",
    )
    args = parser.parse_args(argv)

    timings = time_analyzers()
    report = {
        "benchmarks": [
            {
                "name": f"{tool}[src]",
                "stats": {
                    "mean": entry["seconds"],
                    "min": entry["seconds"],
                    "max": entry["seconds"],
                    "rounds": 1,
                },
            }
            for tool, entry in sorted(timings.items())
        ],
        "extra_info": {
            "vec_budget_seconds": VEC_BUDGET_SECONDS,
            "flow_budget_seconds": FLOW_BUDGET_SECONDS,
            "per_tool": timings,
        },
    }
    Path(args.out).write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
    )
    vec = timings["repro-vec"]
    flow = timings["repro-flow"]
    within = (
        vec["seconds"] < VEC_BUDGET_SECONDS  # type: ignore[operator]
        and flow["seconds"] < FLOW_BUDGET_SECONDS  # type: ignore[operator]
    )
    print(
        f"repro-vec {vec['seconds']:.2f}s "
        f"(budget {VEC_BUDGET_SECONDS:.0f}s), "
        f"repro-flow {flow['seconds']:.2f}s "
        f"(budget {FLOW_BUDGET_SECONDS:.0f}s, "
        f"{'within' if within else 'OVER'}), "
        f"repro-lint {timings['repro-lint']['seconds']:.2f}s, "
        f"repro-audit {timings['repro-audit']['seconds']:.2f}s "
        f"(wrote {args.out})"
    )
    return 0 if within else 1


if __name__ == "__main__":
    raise SystemExit(main())
