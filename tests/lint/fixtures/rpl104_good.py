"""Good: sorted iteration, or order-neutral consumption of sets."""


def org_shares(pools) -> dict:
    shares = {}
    for pool in pools:
        for org in sorted(set(pool.org_names)):
            shares[org] = shares.get(org, 0.0) + pool.hash_share
    return shares


def lag_victims(lagging, eclipsed):
    # Iterates a *list*; the set only answers membership queries.
    return [v for v in lagging if v not in set(eclipsed)]


def distinct_workers(records) -> int:
    return len({record.worker for record in records})


def union(groups):
    merged = set()
    for group in set(groups):
        merged.add(group)  # set -> set stays order-neutral
    return merged


def total(weights) -> float:
    result = 0.0
    for weight in set(weights):
        result += weight
    return result


names_of = lambda nodes: [node.name for node in sorted(set(nodes))]
distinct = lambda nodes: len({node.name for node in nodes})


class Tiers:
    ORDER = [tier for tier in sorted({"core", "edge"})]
    KNOWN = {tier for tier in {"relay", "miner"}}
