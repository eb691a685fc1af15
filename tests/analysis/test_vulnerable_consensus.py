"""Tests for Table V optimization and Figure 6 consensus statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.consensus import behind_fraction_after, consensus_pruning_stats
from repro.analysis.vulnerable import max_vulnerable_nodes, vulnerable_table
from repro.crawler.timeseries import NODE_DOWN, ConsensusTimeSeries
from repro.errors import AnalysisError


def series(lags, interval=60.0):
    lags = np.asarray(lags)
    times = np.arange(1, lags.shape[0] + 1) * interval
    return ConsensusTimeSeries(times=times, lags=lags)


class TestMaxVulnerableNodes:
    def test_sustained_window_semantics(self):
        # Node 0: lagging all 5 ticks; node 1: dips to 0 mid-window;
        # node 2: never lags.
        lags = [
            [1, 1, 0],
            [1, 1, 0],
            [2, 0, 0],
            [1, 1, 0],
            [1, 1, 0],
        ]
        result = max_vulnerable_nodes(series(lags), lag_threshold=1, t_minutes=5)
        assert result.max_nodes == 1  # only node 0 sustains 5 minutes
        result2 = max_vulnerable_nodes(series(lags), lag_threshold=1, t_minutes=2)
        assert result2.max_nodes == 2

    def test_threshold_raises_bar(self):
        lags = [[2, 1], [2, 1], [2, 1]]
        assert max_vulnerable_nodes(series(lags), 1, 3).max_nodes == 2
        assert max_vulnerable_nodes(series(lags), 2, 3).max_nodes == 1

    def test_witness_time_reported(self):
        lags = [[0], [1], [1], [0]]
        result = max_vulnerable_nodes(series(lags), 1, 2)
        assert result.max_nodes == 1
        assert result.at_time == 120.0  # window starting at the 2nd tick

    def test_down_nodes_never_vulnerable(self):
        lags = [[NODE_DOWN], [NODE_DOWN]]
        result = max_vulnerable_nodes(series(lags), 1, 2)
        assert result.max_nodes == 0

    def test_percentage(self):
        lags = [[1, 1, 0, 0]] * 3
        result = max_vulnerable_nodes(series(lags), 1, 3)
        assert result.percentage == pytest.approx(50.0)

    def test_validation(self):
        lags = [[1], [1]]
        with pytest.raises(AnalysisError):
            max_vulnerable_nodes(series(lags), 0, 1)
        with pytest.raises(AnalysisError):
            max_vulnerable_nodes(series(lags), 1, 0)
        with pytest.raises(AnalysisError):
            max_vulnerable_nodes(series(lags), 1, 60)  # window > series

    def test_table_monotone_in_t(self):
        rng = np.random.default_rng(3)
        lags = (rng.random((120, 300)) < 0.4).astype(np.int16)
        table = vulnerable_table(series(lags), t_values=(5, 10, 20), lag_thresholds=(1,))
        counts = [table[t][0].max_nodes for t in (5, 10, 20)]
        assert counts == sorted(counts, reverse=True)


def brute_force_table(lags, times, t_values, lag_thresholds):
    """Direct oracle: every window placement, every node, every sample.

    Same window rounding and first-maximum tie-break as the contract of
    ``vulnerable_table``; cells as ``(T, b, max_nodes, at_time, N)``.
    """
    lags = np.asarray(lags)
    num_samples, num_nodes = lags.shape
    interval = float(times[1] - times[0])
    table = {}
    for t_minutes in t_values:
        window = max(1, round(t_minutes * 60.0 / interval))
        row = []
        for lag_threshold in lag_thresholds:
            best_count, best_start = -1, 0
            for start in range(num_samples - window + 1):
                count = sum(
                    all(lags[s, n] >= lag_threshold for s in range(start, start + window))
                    for n in range(num_nodes)
                )
                if count > best_count:
                    best_count, best_start = count, start
            row.append(
                (t_minutes, lag_threshold, best_count, float(times[best_start]), num_nodes)
            )
        table[t_minutes] = row
    return table


def as_cells(table):
    return {
        t: [(c.t_minutes, c.lag_threshold, c.max_nodes, c.at_time, c.total_nodes) for c in row]
        for t, row in table.items()
    }


def check_against_oracle(lags, t_values, lag_thresholds, interval=60.0):
    ts = series(lags, interval)
    got = vulnerable_table(ts, t_values=t_values, lag_thresholds=lag_thresholds)
    want = brute_force_table(ts.lags, ts.times, t_values, lag_thresholds)
    assert as_cells(got) == want
    assert list(got) == list(want)  # rows in first-seen T order
    return got


@st.composite
def lag_tables(draw):
    num_samples = draw(st.integers(2, 10))
    num_nodes = draw(st.integers(0, 5))
    values = draw(
        st.lists(
            st.sampled_from([NODE_DOWN, 0, 1, 2, 3, 5]),
            min_size=num_samples * num_nodes,
            max_size=num_samples * num_nodes,
        )
    )
    lags = np.array(values, dtype=np.int16).reshape(num_samples, num_nodes)
    interval = draw(st.sampled_from([60.0, 90.0, 120.0]))
    # Largest T whose window still fits: T * 60 / interval <= samples.
    longest = int(num_samples * interval // 60)
    t_values = draw(st.lists(st.integers(1, longest), min_size=1, max_size=5))
    lag_thresholds = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    return lags, t_values, lag_thresholds, interval


class TestVulnerableTableOracle:
    @settings(max_examples=200, deadline=None)
    @given(lag_tables())
    def test_matches_brute_force(self, case):
        lags, t_values, lag_thresholds, interval = case
        check_against_oracle(lags, t_values, lag_thresholds, interval)

    def test_random_dense_matrix(self):
        rng = np.random.default_rng(17)
        lags = rng.integers(-1, 4, size=(40, 25)).astype(np.int16)
        check_against_oracle(lags, (1, 3, 7, 20, 40), (1, 2, 3))

    def test_window_equals_series_length(self):
        lags = [[1, 1, 0], [2, 1, 1], [1, 3, 1]]
        table = check_against_oracle(lags, (3,), (1, 2))
        assert [c.max_nodes for c in table[3]] == [2, 0]
        assert all(c.at_time == 60.0 for c in table[3])  # the only placement

    def test_every_node_behind_ties_to_first_sample(self):
        lags = np.full((6, 4), 3, dtype=np.int16)
        table = check_against_oracle(lags, (1, 2, 6), (1, 3))
        for row in table.values():
            assert all(c.max_nodes == 4 and c.at_time == 60.0 for c in row)

    def test_no_node_behind_ties_to_first_sample(self):
        lags = np.zeros((6, 4), dtype=np.int16)
        table = check_against_oracle(lags, (1, 4), (1,))
        for row in table.values():
            assert all(c.max_nodes == 0 and c.at_time == 60.0 for c in row)

    def test_node_down_breaks_a_run(self):
        # Node 0 lags throughout but is down at the third sample; node 1
        # lags throughout.
        lags = [[2, 2], [2, 2], [NODE_DOWN, 2], [2, 2], [2, 2]]
        table = check_against_oracle(lags, (2, 3, 5), (1, 2))
        assert [c.max_nodes for c in table[2]] == [2, 2]
        assert [c.max_nodes for c in table[3]] == [1, 1]
        assert [c.max_nodes for c in table[5]] == [1, 1]

    def test_unsorted_and_duplicate_t_values(self):
        rng = np.random.default_rng(5)
        lags = rng.integers(0, 3, size=(30, 12)).astype(np.int16)
        table = check_against_oracle(lags, (10, 2, 10, 5, 2), (2, 1, 2))
        assert list(table) == [10, 2, 5]
        assert [c.lag_threshold for c in table[5]] == [2, 1, 2]

    def test_t_values_rounding_to_one_window(self):
        # At 120 s sampling, T = 3 and T = 4 minutes both span 2 samples.
        rng = np.random.default_rng(9)
        lags = rng.integers(0, 3, size=(20, 10)).astype(np.int16)
        table = check_against_oracle(lags, (3, 4, 1, 2), (1, 2), interval=120.0)
        assert [(c.max_nodes, c.at_time) for c in table[3]] == [
            (c.max_nodes, c.at_time) for c in table[4]
        ]
        assert [(c.max_nodes, c.at_time) for c in table[1]] == [
            (c.max_nodes, c.at_time) for c in table[2]
        ]


class TestVulnerableValidation:
    """Each error keeps its message and context keys, for one cell and
    for the whole table."""

    LAGS = [[1], [1], [1]]

    @pytest.mark.parametrize(
        "call",
        [
            lambda ts: max_vulnerable_nodes(ts, 0, 1),
            lambda ts: vulnerable_table(ts, t_values=(1, 2), lag_thresholds=(1, 0)),
        ],
    )
    def test_threshold_below_one(self, call):
        with pytest.raises(AnalysisError, match="lag threshold must be >= 1") as info:
            call(series(self.LAGS))
        assert info.value.context == {"value": 0}

    @pytest.mark.parametrize(
        "call",
        [
            lambda ts: max_vulnerable_nodes(ts, 1, -2),
            lambda ts: vulnerable_table(ts, t_values=(1, -2), lag_thresholds=(1,)),
        ],
    )
    def test_window_not_positive(self, call):
        with pytest.raises(AnalysisError, match="window must be positive") as info:
            call(series(self.LAGS))
        assert info.value.context == {"minutes": -2}

    @pytest.mark.parametrize(
        "call",
        [
            lambda ts: max_vulnerable_nodes(ts, 1, 1),
            lambda ts: vulnerable_table(ts),
        ],
    )
    def test_series_too_short(self, call):
        with pytest.raises(AnalysisError, match="series too short") as info:
            call(series([[1, 0]]))
        assert info.value.context == {}

    @pytest.mark.parametrize(
        "call",
        [
            lambda ts: max_vulnerable_nodes(ts, 1, 4),
            lambda ts: vulnerable_table(ts, t_values=(1, 4), lag_thresholds=(1,)),
        ],
    )
    def test_window_longer_than_series(self, call):
        with pytest.raises(AnalysisError, match="window longer than series") as info:
            call(series(self.LAGS))
        assert info.value.context == {"window_samples": 4, "samples": 3}

    def test_empty_t_values_give_empty_table(self):
        assert vulnerable_table(series(self.LAGS), t_values=()) == {}

    def test_empty_thresholds_give_empty_rows(self):
        table = vulnerable_table(series(self.LAGS), t_values=(2, 1), lag_thresholds=())
        assert table == {2: [], 1: []}

    def test_empty_axes_still_validate(self):
        with pytest.raises(AnalysisError, match="window must be positive"):
            vulnerable_table(series(self.LAGS), t_values=(0,), lag_thresholds=())
        with pytest.raises(AnalysisError, match="lag threshold must be >= 1"):
            vulnerable_table(series(self.LAGS), t_values=(), lag_thresholds=(0,))


class TestBehindFractionAfter:
    def test_probe_near_block_plus_delay(self):
        # Lag rises right after each "block" at t=0 and decays.
        lags = [[1, 1], [1, 0], [0, 0], [0, 0], [0, 0]]
        fraction = behind_fraction_after(series(lags), block_times=[0.0], delay_seconds=60.0)
        assert fraction == pytest.approx(1.0)
        fraction2 = behind_fraction_after(series(lags), block_times=[0.0], delay_seconds=180.0)
        assert fraction2 == pytest.approx(0.0)

    def test_probes_outside_series_skipped(self):
        lags = [[1], [1]]
        with pytest.raises(AnalysisError):
            behind_fraction_after(series(lags), block_times=[1e9], delay_seconds=0.0)

    def test_validation(self):
        lags = [[1]]
        with pytest.raises(AnalysisError):
            behind_fraction_after(series(lags), [], 60.0)
        with pytest.raises(AnalysisError):
            behind_fraction_after(series(lags), [0.0], -1.0)


class TestPruningStats:
    def test_stats_computed(self):
        lags = [
            [0, 1, 5],
            [0, 0, 5],
            [1, 0, 5],
            [0, 0, 5],
        ]
        stats = consensus_pruning_stats(series(lags))
        assert stats.peak_behind_fraction == pytest.approx(2 / 3)
        assert stats.forever_behind_fraction == pytest.approx(1 / 3)
        assert stats.mean_synced_fraction == pytest.approx(0.5)

    def test_calibrated_generator_hits_paper_shape(self):
        from repro.datagen.consensus import ConsensusDynamicsGenerator

        ts = ConsensusDynamicsGenerator(num_nodes=1500, seed=11).generate(
            86_400, 600.0
        )
        stats = consensus_pruning_stats(ts)
        assert stats.forever_behind_fraction == pytest.approx(0.10, abs=0.05)
        assert stats.peak_behind_fraction >= 0.60
        assert 0.40 <= stats.mean_synced_fraction <= 0.80
