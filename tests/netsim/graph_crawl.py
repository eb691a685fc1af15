"""Bitnodes-style crawls of a graph-engine run, for tests.

A crawl records each node's lag behind the highest chain in the run,
the ``block_idx`` a Bitnodes probe derives from a node's reported
height, so the measurement schema (snapshots, lag series and the
Table V query) can read a live :class:`GraphSimulatorVec`.  One step
stands for ``seconds_per_step`` seconds (30 s: 20 steps per 10-minute
block).
"""

from repro.crawler.snapshot import NetworkSnapshot, NodeRecord
from repro.types import AddressType


def crawl(sim, seconds_per_step=30.0, asns=None, down=()):
    """One snapshot of ``sim`` at its current step."""
    heights = sim.heights
    tip = max(heights)
    records = [
        NodeRecord(
            node_id=node,
            address_type=AddressType.IPV4,
            asn=0 if asns is None else int(asns[node]),
            org_id="unknown",
            up=node not in down,
            block_idx=0 if node in down else tip - height,
        )
        for node, height in enumerate(heights)
    ]
    return NetworkSnapshot(sim.step_count * seconds_per_step, records)


def crawl_every(sim, interval_steps, duration_steps, **kwargs):
    """Step ``sim`` for ``duration_steps``, crawling every ``interval_steps``."""
    snapshots = []
    for _ in range(duration_steps // interval_steps):
        sim.run(interval_steps)
        snapshots.append(crawl(sim, **kwargs))
    return snapshots
