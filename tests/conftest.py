"""Shared fixtures for the test suite.

Heavyweight artifacts (the paper-scale topology, full-day series, the
analyzers' reports on the repo itself) are session-scoped so the suite
stays fast; anything a test mutates is function-scoped.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.audit.project import Project
from repro.check import TIERS
from repro.lint import lint_paths
from repro.parallel import Trial
from repro.rng import derive_seed
from repro.topology.builder import build_paper_topology
from repro.topology.topology import Topology

REPO_ROOT = Path(__file__).resolve().parents[1]

#: What the lint tier checks by default: every Python tree of the repo.
LINT_TARGETS = [
    REPO_ROOT / name for name in ("src", "benchmarks", "tests", "examples")
]


def make_trials(experiment_id, root_seed, count, params=None):
    """Trials ``0..count-1`` of one experiment, each seeded from
    ``(root_seed, experiment_id, index)`` through ``derive_seed``.

    ``params`` optionally gives one parameter dict per trial.
    """
    return [
        Trial(
            experiment_id,
            index,
            derive_seed(root_seed, f"{experiment_id}:trial:{index}"),
            tuple(sorted(params[index].items())) if params else (),
        )
        for index in range(count)
    ]


@pytest.fixture(scope="session")
def paper_topology():
    """The full 13,635-node paper-calibrated topology (read-only)."""
    return build_paper_topology(seed=7)


@pytest.fixture(scope="session")
def small_topology():
    """A 20%-scale calibrated topology (read-only)."""
    return build_paper_topology(seed=7, scale=0.2)


@pytest.fixture()
def tiny_topology():
    """A hand-built 3-org / 4-AS topology with hosted nodes (mutable)."""
    topo = Topology()
    topo.add_organization("alpha", "Alpha Hosting", "DE")
    topo.add_organization("beta", "Beta Cloud", "US")
    topo.add_organization("gamma", "Gamma ISP", "CN")
    topo.add_as(100, "AS100", "alpha", "DE", num_prefixes=4)
    topo.add_as(200, "AS200", "beta", "US", num_prefixes=6)
    topo.add_as(201, "AS201", "beta", "US", num_prefixes=2)
    topo.add_as(300, "AS300", "gamma", "CN", num_prefixes=3)
    node_id = 0
    for asn, count in ((100, 12), (200, 8), (201, 4), (300, 6)):
        pool = topo.pool(asn)
        for i in range(count):
            topo.host_node(node_id, asn, prefix=pool.prefixes[i % len(pool.prefixes)])
            node_id += 1
    return topo


@pytest.fixture()
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session")
def repo_lint():
    """One lint run over :data:`LINT_TARGETS` (read-only)."""
    return lint_paths(LINT_TARGETS)


@pytest.fixture(scope="session")
def src_reports(repo_lint):
    """Each whole-program tier's report on ``src`` (read-only), by section.

    Built as ``repro-check`` builds them: one project over the modules
    the lint run parsed, checked by every tier in turn.
    """
    files = {loaded.path: loaded for loaded in repo_lint.files}
    project = Project.load([REPO_ROOT / "src"], files=files)
    return {name: tier.check(project) for name, tier in TIERS.items()}
