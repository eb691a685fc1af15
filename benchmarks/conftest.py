"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` regenerates one of the paper's tables or figures at
full scale, times it with pytest-benchmark, prints the artifact next to
the paper's reference numbers, and asserts the reproduction's shape
targets (see DESIGN.md §4).  Absolute timings are informational; the
assertions are the reproduction audit.  Each artifact is one trial and
runs in the benchmark's own process.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment


def bench_opt_in(markexpr) -> bool:
    """True when the ``-m`` marker expression selects ``bench`` items.

    A substring test is wrong here: ``-m "not bench"`` *contains*
    ``"bench"`` but deselects it, and ``-m benchy`` selects a different
    marker entirely.  Evaluate the expression the way pytest does — a
    benchmark item carries exactly the ``bench`` marker, so the run
    opts in iff the expression matches that marker set.
    """
    if not markexpr:
        return False
    try:
        from _pytest.mark.expression import Expression

        return bool(
            Expression.compile(markexpr).evaluate(lambda name: name == "bench")
        )
    except Exception:
        # Unparseable expression (pytest will error out on it anyway)
        # or a pytest without the expression module: stay conservative
        # and skip the full-scale benchmarks.
        return False


def pytest_collection_modifyitems(config, items):
    """Mark every benchmark ``bench`` and keep it out of tier-1 runs.

    ``bench_*.py`` matches ``python_files``, so a bare ``pytest
    benchmarks`` (or an IDE/CI invocation with explicit paths) would
    otherwise regenerate every paper artifact at full scale.  Benchmarks
    are opt-in: ``pytest -m bench benchmarks``.
    """
    opt_in = bench_opt_in(config.getoption("-m"))
    skip = pytest.mark.skip(
        reason="full-scale benchmark; opt in with `pytest -m bench benchmarks`"
    )
    for item in items:
        item.add_marker(pytest.mark.bench)
        if not opt_in:
            item.add_marker(skip)


@pytest.fixture()
def run_artifact(benchmark):
    """Run one experiment under the benchmark timer and print it."""

    def _run(experiment_id: str, seed: int = 0):
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"seed": seed, "fast": False},
            rounds=1,
            iterations=1,
        )
        print()
        print(result.render())
        paper_pairs = [
            (key[: -len("_paper")], value)
            for key, value in result.metrics.items()
            if key.endswith("_paper")
        ]
        if paper_pairs:
            print("paper-vs-measured:")
            for key, paper_value in sorted(paper_pairs):
                measured = result.metrics.get(key)
                if measured is None:
                    continue
                print(f"  {key}: paper={paper_value:g} measured={measured:g}")
        return result

    return _run
