"""Scenario library: declarative, hashable experiment specs.

:mod:`repro.scenarios.spec` holds :class:`ScenarioSpec`, which compiles
an attacker hash-rate schedule, partition/failure timelines, and an
unreachable-peer population down to the propagation engines — the unit
the :mod:`repro.sweeps` driver fans out by the thousands.
"""

from .spec import (
    SCENARIO_TOPOLOGIES,
    ScenarioSpec,
    run_scenario,
    scenario_summary_keys,
)

__all__ = [
    "SCENARIO_TOPOLOGIES",
    "ScenarioSpec",
    "run_scenario",
    "scenario_summary_keys",
]
