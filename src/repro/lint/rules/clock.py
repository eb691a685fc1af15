"""RPL103 wall-clock: real-time reads inside simulation/experiment code.

Simulated time is an engine's step count; experiment inputs are seeds and
configs.  A ``time.time()`` / ``datetime.now()`` read smuggles the
host's wall clock into that world, so two runs of the same seed can
diverge (timestamps in outputs, time-dependent branches, cache keys
that never match).  ``time.perf_counter()`` is deliberately *not*
flagged: measuring how long a trial took (as the trial engine's
metrics do) is observability, not simulation input — the duration
never feeds results.
"""

from __future__ import annotations

import ast
from typing import List

from ..core import Finding, ModuleInfo
from .base import Rule

__all__ = ["WallClockRule"]

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    rule_id = "RPL103"
    name = "wall-clock"
    summary = "wall-clock read in deterministic code"
    rationale = (
        "Simulation and experiment code must take time from the "
        "simulated clock (an engine's step count) and identity "
        "from seeds; host-clock reads make same-seed runs diverge. "
        "time.perf_counter() for timing metrics is allowed."
    )

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in module.index.of(ast.Call):
            canonical = module.resolve(node.func)
            if canonical in _WALL_CLOCK_CALLS:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{canonical}() reads the host wall clock; use the "
                        "simulated clock (an engine's step count) or pass "
                        "timestamps in as config (time.perf_counter() is "
                        "fine for timing metrics)",
                    )
                )
        return findings
