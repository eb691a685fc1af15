"""Weighted node placement: equivalence with the per-draw loop, and its cost.

:meth:`PrefixPool.assign_nodes_weighted` builds the prefix sums once
and rebuilds them only when a prefix fills.  The first class pins it to
the loop it replaced — copied here as an oracle, which rebuilt
the sums on every draw through ``rng.choices(weights=...)`` — on small
pools of /29 and /30 prefixes that fill up and overflow.  The second
counts prefix-sum builds, so a per-draw rebuild cannot come back
unnoticed.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology import prefix as prefix_module
from repro.topology.prefix import AddressPlan, PrefixPool

ASN = 64500


def oracle_assign_nodes_weighted(pool, node_ids, weights, rng):
    """The O(N·P) placement loop the optimised method replaced."""

    def has_room(prefix):
        return pool._next_host.get(prefix, 1) < prefix.num_addresses - 1

    live = list(zip(pool.prefixes, weights))
    for node_id in node_ids:
        while True:
            prefixes, wts = zip(*live)
            prefix = rng.choices(prefixes, weights=wts, k=1)[0]
            if has_room(prefix):
                break
            live = [(p, w) for p, w in live if p != prefix]
        pool.assign_node(node_id, prefix)


def make_pool(prefix_lens):
    plan = AddressPlan()
    pool = PrefixPool(asn=ASN)
    for prefix_len in prefix_lens:
        pool.add_prefix(plan.allocate(ASN, 1, prefix_len)[0])
    return pool


def pool_state(pool):
    return (
        list(pool.prefixes),
        list(pool._node_prefix.items()),
        list(pool._node_ip.items()),
        list(pool._next_host.items()),
    )


WEIGHTS = st.one_of(
    st.sampled_from([1.0, 0.5, 2.0, 1e-9]),
    st.floats(min_value=1e-9, max_value=100.0),
)


@st.composite
def placements(draw):
    """A small pool, pre-placed nodes, weights and the nodes to place."""
    prefix_lens = draw(st.lists(st.sampled_from([29, 30]), min_size=1, max_size=10))
    weights = draw(st.lists(WEIGHTS, min_size=len(prefix_lens), max_size=len(prefix_lens)))
    # Nodes already placed by hand: the weighted pass must start from
    # the pool's host counters, not from empty prefixes.
    pre = draw(st.lists(st.integers(0, len(prefix_lens) - 1), max_size=6))
    capacity = sum((1 << (32 - n)) - 2 for n in prefix_lens)
    pre = [index for k, index in enumerate(pre) if pre[: k + 1].count(index) <= 2]
    count = draw(st.integers(0, capacity - len(pre)))
    node_ids = list(range(100, 100 + count))
    if 0 < count < capacity - len(pre) and draw(st.booleans()):
        # Re-place a node: both loops must fail at the same point.
        clash = draw(st.sampled_from(node_ids + list(range(len(pre)))))
        node_ids.insert(draw(st.integers(0, len(node_ids))), clash)
    seed = draw(st.integers(0, 2**32 - 1))
    return prefix_lens, weights, pre, node_ids, seed


def run(assign, case):
    prefix_lens, weights, pre, node_ids, seed = case
    pool = make_pool(prefix_lens)
    for node_id, index in enumerate(pre):
        pool.assign_node(node_id, pool.prefixes[index])
    rng = random.Random(seed)
    try:
        assign(pool, node_ids, weights, rng)
    except TopologyError as exc:
        outcome = ("error", exc.args[0])
    else:
        outcome = [(node_id, pool.node_ip(node_id)) for node_id in node_ids]
    return outcome, pool_state(pool), rng.getstate()


class TestMatchesPerDrawLoop:
    @settings(max_examples=300, deadline=None)
    @given(placements())
    def test_same_assignments_pool_state_and_rng_state(self, case):
        expected = run(oracle_assign_nodes_weighted, case)
        got = run(PrefixPool.assign_nodes_weighted, case)
        assert got == expected

    def test_prefix_filling_mid_assignment_leaves_and_the_draw_retries(
        self, monkeypatch
    ):
        """A heavy /30 takes the first two nodes, then fills: the next
        draw that lands on it drops it from the live set and draws again
        over the rest, as ``rng.choices`` over the shrunken pool would."""
        builds = []
        cumulative = prefix_module._cumulative_weights

        def counted(weights, live):
            builds.append(list(live))
            return cumulative(weights, live)

        monkeypatch.setattr(prefix_module, "_cumulative_weights", counted)
        case = ([30, 29, 29], [100.0, 1.0, 1.0], [], list(range(100, 110)), 7)
        expected = run(oracle_assign_nodes_weighted, case)
        got = run(PrefixPool.assign_nodes_weighted, case)
        assert got == expected
        assert builds == [[0, 1, 2], [1, 2]]


class TestPrefixSumWork:
    def test_prefix_sums_built_once_plus_once_per_filled_prefix(self, monkeypatch):
        """4,096 two-host prefixes, 2,000 nodes: no rebuild per draw.

        The sums are rebuilt only when a drawn prefix turns out full, so
        the build count is one plus at most one per prefix that filled.
        A rebuild on every draw would count at least 2,000.
        """
        builds = []
        cumulative = prefix_module._cumulative_weights

        def counted(weights, live):
            builds.append(len(live))
            return cumulative(weights, live)

        monkeypatch.setattr(prefix_module, "_cumulative_weights", counted)
        pool = make_pool([30] * 4096)
        weights = [(i + 1) ** -1.2 for i in range(4096)]
        pool.assign_nodes_weighted(range(2000), weights, random.Random(0))
        filled = sum(1 for host in pool._next_host.values() if host == 3)
        assert filled > 100
        assert 1 < len(builds) <= 1 + filled
        assert builds[0] == 4096

