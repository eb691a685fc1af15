"""Property-based tests (hypothesis) on core invariants."""

import ipaddress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.centralization import cdf_points, coverage_count
from repro.analysis.timing import isolation_bound, min_isolation_time
from repro.crawler.timeseries import ConsensusTimeSeries
from repro.netsim.grid import ForkChain, span_ratio_delay
from repro.topology.bgp import BgpAnnouncement, RoutingTable
from repro.types import LagBand, lag_band

counts_strategy = st.dictionaries(
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=1, max_value=5_000),
    min_size=1,
    max_size=60,
)


class TestCentralizationProperties:
    @given(counts=counts_strategy)
    def test_cdf_monotone_and_normalized(self, counts):
        points = cdf_points(counts)
        fractions = [f for _, f in points]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == pytest.approx(1.0)

    @given(counts=counts_strategy, fraction=st.floats(0.05, 1.0))
    def test_coverage_count_is_minimal(self, counts, fraction):
        k = coverage_count(counts, fraction)
        ordered = sorted(counts.values(), reverse=True)
        total = sum(ordered)
        assert sum(ordered[:k]) >= fraction * total
        if k > 1:
            assert sum(ordered[: k - 1]) < fraction * total

    @given(counts=counts_strategy)
    def test_coverage_monotone_in_fraction(self, counts):
        assert coverage_count(counts, 0.3) <= coverage_count(counts, 0.7)


class TestTimingBoundProperties:
    @given(
        m=st.integers(min_value=2, max_value=400),
        lam=st.floats(min_value=0.2, max_value=1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_min_time_is_boundary(self, m, lam):
        import math

        t = min_isolation_time(m, lam)
        assert isolation_bound(m, t, lam) >= math.log(0.8)
        if t > m:
            assert isolation_bound(m, t - 1, lam) < math.log(0.8)

    @given(m=st.integers(min_value=2, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_antitone_in_lambda(self, m):
        assert min_isolation_time(m, 0.4) >= min_isolation_time(m, 0.9)


class TestChainProperties:
    @given(
        branches=st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 6)),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_main_chain_linked(self, branches):
        """Each branch of a fork tree shares its parent's blocks up to
        the fork point and has exactly one block per height above it."""
        main = ForkChain(label="A", parent=None, branch_height=0)
        for _ in range(6):
            main.extend()
        forks = [main]
        for index, (fork_at, length) in enumerate(branches):
            parent = forks[index % len(forks)]
            at = min(fork_at, parent.tip_height)
            fork = ForkChain(label=f"F{index}", parent=parent, branch_height=at)
            for _ in range(length):
                fork.extend()
            forks.append(fork)
        for fork in forks[1:]:
            chain = [fork.hash_at(h) for h in range(fork.tip_height + 1)]
            assert chain[0] == "genesis"
            assert chain[: fork.branch_height + 1] == [
                fork.parent.hash_at(h) for h in range(fork.branch_height + 1)
            ]
            assert len(set(chain)) == len(chain)
            assert chain[fork.branch_height + 1 :] == fork.hashes


class TestLagBandProperties:
    @given(lag=st.integers(min_value=0, max_value=10_000))
    def test_total_partition(self, lag):
        band = lag_band(lag)
        low, high = band.bounds
        assert low <= lag <= high


class TestRoutingProperties:
    @given(
        prefix_len=st.integers(min_value=9, max_value=23),
        host=st.integers(min_value=1, max_value=250),
    )
    def test_more_specific_always_wins(self, prefix_len, host):
        base = ipaddress.IPv4Network((int(ipaddress.IPv4Address("10.0.0.0")), prefix_len))
        table = RoutingTable()
        table.announce(BgpAnnouncement(network=base, origin_asn=1, as_path=(1,)))
        specific = list(base.subnets(new_prefix=prefix_len + 1))[0]
        table.announce(
            BgpAnnouncement(network=specific, origin_asn=2, as_path=(9, 8, 2))
        )
        ip = specific.network_address + host
        # Longest prefix wins regardless of the longer AS path.
        assert table.origin_of(ip) == 2


class TestSpanRatioProperties:
    @given(n=st.integers(min_value=4, max_value=100_000))
    def test_delay_positive_and_decreasing(self, n):
        assert span_ratio_delay(n) > 0
        assert span_ratio_delay(n) >= span_ratio_delay(4 * n)


class TestTimeSeriesProperties:
    @given(
        data=st.lists(
            st.lists(st.integers(min_value=-1, max_value=30), min_size=3, max_size=3),
            min_size=2,
            max_size=12,
        )
    )
    def test_band_counts_partition_up_nodes(self, data):
        lags = np.array(data, dtype=np.int16)
        times = np.arange(1, lags.shape[0] + 1) * 60.0
        ts = ConsensusTimeSeries(times=times, lags=lags)
        bands = ts.band_count_series()
        total = sum(bands[band] for band in LagBand)
        assert np.array_equal(total, ts.up_matrix().sum(axis=1))
