"""Regenerate the paper-topology golden fixture.

Usage::

    PYTHONPATH=src python -m tests.topology.regen_golden_topology

Rewrites ``tests/topology/fixtures/golden_topology.json`` by building
:func:`repro.topology.builder.build_paper_topology` for every
(seed, scale) case in :data:`CASES` and digesting its node placement.
The scales cover every scale the paper artifacts build at.  Only run
this after deliberately changing the builder's placement (its draws,
their order, or the calibration) — the new capture becomes the pinned
truth, so review the fixture diff like any other behaviour change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.topology.builder import build_paper_topology
from repro.topology.topology import Topology

FIXTURE = Path(__file__).parent / "fixtures" / "golden_topology.json"

SEEDS = (0, 1, 7)
SCALES = (1.0, 0.3, 0.25, 0.2)
CASES = tuple((seed, scale) for seed in SEEDS for scale in SCALES)


def case_name(seed: int, scale: float) -> str:
    return f"seed{seed}-scale{scale}"


def placement_digest(topo: Topology) -> str:
    """SHA-256 over every pool's placement and the node→AS map.

    Per pool, in the topology's pool order: its ASN, its prefixes in
    order, and each hosted node's (prefix, IP) in placement order.
    Then every hosted node's ASN in hosting order.
    """
    lines = []
    for asn, pool in topo.pools.items():
        lines.append(f"pool {asn}")
        lines.append(" ".join(str(prefix.network) for prefix in pool.prefixes))
        for node_id, prefix in pool._node_prefix.items():
            lines.append(f"{node_id} {prefix.network} {pool.node_ip(node_id)}")
    lines.append("node_asn")
    lines.extend(f"{nid} {asn}" for nid, asn in topo._node_asn.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def capture(seed: int, scale: float) -> dict:
    topo = build_paper_topology(seed=seed, scale=scale)
    return {
        "placement_sha256": placement_digest(topo),
        "scale": scale,
        "seed": seed,
        "summary": topo.summary(),
    }


def main() -> None:
    captured = {case_name(*case): capture(*case) for case in CASES}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    for name, entry in captured.items():
        print(f"{name}: digest {entry['placement_sha256'][:12]}")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
