# repro-lint: disable-file  -- intentional rule-trigger fixture for tests/lint
"""Bad: set iteration order leaks into RNG draws or ordered output."""


def org_shares(pools) -> dict:
    shares = {}
    for pool in pools:
        for org in set(pool.org_names):  # expect: RPL104
            shares[org] = shares.get(org, 0.0) + pool.hash_share
    return shares


def sample_latencies(nodes, rng):
    delays = {}
    for node in {n.node_id for n in nodes}:  # expect: RPL104
        delays[node] = rng.expovariate(1.0)
    return delays


def collect(tags):
    unique = set(tags)
    result = []
    for tag in unique:  # expect: RPL104
        result.append(tag)
    return result


def listify(names):
    return [name for name in set(names)]  # expect: RPL104


def emit(ids):
    for node_id in frozenset(ids):  # expect: RPL104
        yield node_id


names_of = lambda nodes: [node.name for node in set(nodes)]  # expect: RPL104


class Tiers:
    ORDER = [tier for tier in {"core", "edge"}]  # expect: RPL104
    RANK = {}
    for tier in {"relay", "miner"}:  # expect: RPL104
        RANK[tier] = len(RANK)
