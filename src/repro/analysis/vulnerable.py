"""Table V: the sustained-lag window optimization.

The paper formalizes the temporal attack's target selection as: *given
a timing constraint T, find the maximum number of vulnerable nodes
whose lagging time L(t) is at least T*, where L(t) is the time a node
needs to catch up once it lags at time t (§V-B).  A node has L(t) >= T
exactly when it stays >= b blocks behind throughout [t, t + T), so the
optimum is a max over window placements of the number of nodes that
sustain the lag.

Every cell of the table comes from one reverse scan over the samples.
For each lag threshold b the scan carries ``run[t, n]``: the number of
consecutive samples from t on in which node n is >= b behind (a
node-down sample counts as not behind), capped at the longest window
and held in the smallest unsigned dtype that fits it.  Node n sustains
the lag over the w-sample window starting at t exactly when
``run[t, n] >= w``.  At each sample one ``np.bincount`` buckets the run
lengths, and a reverse cumulative count over the buckets gives, for
every T at once, the number of sustaining nodes.  ``np.argmax`` reads
the maximum over window starts with its first-index tie-break: the
witness is the earliest optimal window.  The cost is O(samples x nodes
x thresholds), whatever the number of T values, and no samples x nodes
temporary is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..crawler.timeseries import ConsensusTimeSeries
from ..errors import AnalysisError

__all__ = ["VulnerableWindows", "max_vulnerable_nodes", "vulnerable_table"]

#: The paper's Table V axes.
DEFAULT_T_MINUTES: Tuple[int, ...] = (5, 10, 15, 20, 25, 30, 40, 70, 200)
DEFAULT_LAG_THRESHOLDS: Tuple[int, ...] = (1, 2, 5)


@dataclass(frozen=True)
class VulnerableWindows:
    """One Table V cell, with the witness window.

    Attributes:
        t_minutes: The timing constraint T.
        lag_threshold: Minimum blocks behind (1, 2, or 5).
        max_nodes: Maximum concurrently-vulnerable node count.
        at_time: Window start time achieving the maximum.
        total_nodes: Population size (for the percentage column).
    """

    t_minutes: int
    lag_threshold: int
    max_nodes: int
    at_time: float
    total_nodes: int

    @property
    def percentage(self) -> float:
        return 100.0 * self.max_nodes / self.total_nodes if self.total_nodes else 0.0


def max_vulnerable_nodes(
    series: ConsensusTimeSeries,
    lag_threshold: int,
    t_minutes: int,
) -> VulnerableWindows:
    """Maximum number of nodes lagging >= ``lag_threshold`` blocks for
    at least ``t_minutes`` minutes, over all window placements.

    One cell of :func:`vulnerable_table`, with the same validation.
    """
    return vulnerable_table(series, (t_minutes,), (lag_threshold,))[t_minutes][0]


def vulnerable_table(
    series: ConsensusTimeSeries,
    t_values: Sequence[int] = DEFAULT_T_MINUTES,
    lag_thresholds: Sequence[int] = DEFAULT_LAG_THRESHOLDS,
) -> Dict[int, List[VulnerableWindows]]:
    """Full Table V: rows per T, one cell per lag threshold.

    Rows follow the first occurrence of each T in ``t_values``; cells
    follow ``lag_thresholds``.  The window length in samples is
    ``max(1, round(T / interval))`` for the series' sampling interval.
    Empty ``t_values`` give an empty table and empty ``lag_thresholds``
    an empty row per T.

    Raises:
        AnalysisError: A lag threshold below 1, a T that is not
            positive, a series of fewer than two samples, or a window
            longer than the series.
    """
    for lag_threshold in lag_thresholds:
        if lag_threshold < 1:
            raise AnalysisError("lag threshold must be >= 1", value=lag_threshold)
    for t_minutes in t_values:
        if t_minutes <= 0:
            raise AnalysisError("window must be positive", minutes=t_minutes)
    num_samples = series.num_samples
    if num_samples < 2:
        raise AnalysisError("series too short")
    interval = float(series.times[1] - series.times[0])
    windows = {t: max(1, round(t * 60.0 / interval)) for t in t_values}
    for window in windows.values():
        if window > num_samples:
            raise AnalysisError(
                "window longer than series",
                window_samples=window,
                samples=num_samples,
            )
    if not windows or not lag_thresholds:
        return {t: [] for t in windows}

    sustained = _sustained_counts(series.lags, lag_thresholds, list(windows.values()))
    table: Dict[int, List[VulnerableWindows]] = {}
    for column, (t_minutes, window) in enumerate(windows.items()):
        starts = num_samples - window + 1
        row = []
        for level, lag_threshold in enumerate(lag_thresholds):
            counts = sustained[:starts, level, column]
            best = int(np.argmax(counts))
            row.append(
                VulnerableWindows(
                    t_minutes=t_minutes,
                    lag_threshold=lag_threshold,
                    max_nodes=int(counts[best]),
                    at_time=float(series.times[best]),
                    total_nodes=series.num_nodes,
                )
            )
        table[t_minutes] = row
    return table


def _sustained_counts(
    lags: np.ndarray, lag_thresholds: Sequence[int], windows: List[int]
) -> np.ndarray:
    """``out[t, k, j]``: nodes >= ``lag_thresholds[k]`` blocks behind at
    every sample of ``[t, t + windows[j])`` (zero where the window runs
    past the series)."""
    num_samples, num_nodes = lags.shape
    num_levels = len(lag_thresholds)
    levels = np.asarray(lag_thresholds)[:, None]
    columns = np.asarray(windows)
    longest = max(windows)
    # Bucket v of level k sits at k * (longest + 1) + v in the bincount.
    offsets = (np.arange(num_levels) * (longest + 1))[:, None]
    run = np.zeros((num_levels, num_nodes), dtype=np.min_scalar_type(longest))
    out = np.empty((num_samples, num_levels, len(windows)), dtype=np.int64)
    for t in range(num_samples - 1, -1, -1):
        np.minimum(run, longest - 1, out=run)
        run += 1
        run *= lags[t] >= levels
        lengths = np.bincount(
            (run + offsets).ravel(), minlength=num_levels * (longest + 1)
        ).reshape(num_levels, longest + 1)
        # Nodes whose run is at least v samples long, for every v.
        at_least = np.cumsum(lengths[:, ::-1], axis=1)[:, ::-1]
        out[t] = at_least[:, columns]
    return out
