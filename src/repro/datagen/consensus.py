"""Consensus-lag dynamics generator (Figures 6/8, Tables V/VII).

The paper's temporal analysis rests on a two-month, per-node record of
*block lag*: how many blocks each node trailed the best chain at every
sample tick.  This module regenerates such a record with a stochastic
model whose ingredients mirror the mechanisms the paper identifies
(§V-B):

- blocks arrive as a Poisson process (mean 600 s);
- each node has a *catch-up delay* per block — the time between the
  block's publication and the node's adoption of it — drawn lognormal
  around a per-node scale;
- nodes fall into three behavioural classes observed in Figure 6(a):
  ~50% stay synchronized, 30–40% "waver", ~10% are effectively always
  behind;
- per-block *propagation storms* (global delay multipliers) create the
  wide yellow/purple spikes of Figure 6(b) where up to ~90% of the
  network falls behind;
- per-AS quality multipliers reproduce Table VII's per-AS synced-node
  ordering.

The output is a :class:`~repro.crawler.timeseries.ConsensusTimeSeries`
(samples x nodes lag matrix), which every downstream analysis consumes.
Generation is vectorized with NumPy and chunked over nodes, so the
paper-scale configuration (10k nodes, days of 1-minute samples) runs in
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..crawler.timeseries import ConsensusTimeSeries
from ..errors import DataGenError
from ..rng import RngStreams
from ..types import BITCOIN_BLOCK_INTERVAL

__all__ = ["ConsensusModelParams", "ConsensusDynamicsGenerator"]


@dataclass(frozen=True)
class ConsensusModelParams:
    """Tunable parameters of the lag-dynamics model.

    Defaults are calibrated so the generated series matches the paper's
    headline statistics: ~62.7% of nodes >= 1 block behind five minutes
    after a block (Table V row 1), a long-run synced share around 45-55%
    (Figure 6(a)), a ~10% forever-behind tail, and storm spikes reaching
    ~90% of the network (Figure 6(b/c)).
    """

    block_interval: float = BITCOIN_BLOCK_INTERVAL
    #: Behavioural class mix (Figure 6(a) observations 1-3).
    synced_fraction: float = 0.50
    waverer_fraction: float = 0.40
    stuck_fraction: float = 0.10
    #: Median catch-up delay per class (seconds).  Calibrated so the
    #: worst 5-minute window strands ~62.7% of nodes >= 1 block behind
    #: (Table V row 1) while the sustained tail converges to the ~10%
    #: forever-behind class.
    synced_median_delay: float = 60.0
    waverer_median_delay: float = 330.0
    stuck_median_delay: float = 18_000.0
    #: Log-sigma of per-block delay noise and of per-node heterogeneity.
    delay_sigma: float = 0.45
    node_sigma: float = 0.30
    #: Per-block storm model: every block's delays share a lognormal
    #: multiplier; bigger storms (x ``storm_multiplier``) hit with
    #: probability ``storm_prob`` and produce the Figure 6(b) spikes.
    storm_sigma: float = 0.22
    storm_prob: float = 0.02
    storm_multiplier: float = 1.7
    #: AR(1) day-scale modulation of delays (regime changes in Fig 6(a)).
    regime_rho: float = 0.97
    regime_sigma: float = 0.04
    #: Lag cap stored in the matrix (int16-safe; deep laggards saturate).
    max_lag: int = 60
    #: Blocks are generated from ``-burn_in`` so the sample window opens
    #: in steady state: without it, the first ticks see zero published
    #: blocks and even the forever-behind class counts as "synced".
    burn_in: float = 43_200.0

    def __post_init__(self) -> None:
        mix = self.synced_fraction + self.waverer_fraction + self.stuck_fraction
        if abs(mix - 1.0) > 1e-9:
            raise DataGenError("class fractions must sum to 1", total=mix)
        if self.block_interval <= 0:
            raise DataGenError("block interval must be positive")
        if min(
            self.synced_median_delay,
            self.waverer_median_delay,
            self.stuck_median_delay,
        ) <= 0:
            raise DataGenError("median delays must be positive")


class ConsensusDynamicsGenerator:
    """Generates per-node lag time series.

    Parameters:
        num_nodes: Population size (the paper's fluctuates 8k-13k).
        seed: Root seed (fully deterministic output per seed).
        params: Model parameters.
        node_asns: Optional per-node ASN vector, carried into the
            resulting series for the Figure 8 / Table VII joins.
        as_quality: Optional ASN -> delay multiplier; values below 1
            make an AS's nodes catch up faster.  Used to calibrate the
            Table VII per-AS synced ordering.
        default_quality: Delay multiplier for nodes whose AS has no
            ``as_quality`` entry (the long tail's baseline quality).
    """

    #: Node chunk size for the vectorized pipeline (memory control).
    CHUNK = 1024

    def __init__(
        self,
        num_nodes: int,
        seed: int = 0,
        params: ConsensusModelParams = ConsensusModelParams(),
        node_asns: Optional[Sequence[int]] = None,
        as_quality: Optional[Dict[int, float]] = None,
        default_quality: float = 1.0,
    ) -> None:
        if num_nodes < 1:
            raise DataGenError("num_nodes must be positive", num=num_nodes)
        self.num_nodes = num_nodes
        self.params = params
        self.streams = RngStreams(seed)
        self.node_asns = (
            np.asarray(node_asns, dtype=np.int64) if node_asns is not None else None
        )
        if self.node_asns is not None and self.node_asns.shape[0] != num_nodes:
            raise DataGenError(
                "one ASN per node required",
                asns=self.node_asns.shape[0],
                nodes=num_nodes,
            )
        self.as_quality = dict(as_quality or {})
        if default_quality <= 0:
            raise DataGenError("default_quality must be positive")
        self.default_quality = default_quality

    # ------------------------------------------------------------------
    def generate(
        self, duration: float, sample_interval: float = 600.0
    ) -> ConsensusTimeSeries:
        """Generate ``duration`` seconds sampled every ``sample_interval``."""
        if duration <= 0 or sample_interval <= 0:
            raise DataGenError("duration and interval must be positive")
        rng = self.streams.numpy_stream("consensus")

        block_times = self._block_times(rng, duration)
        block_mult = self._block_multipliers(rng, len(block_times))
        node_scale = self._node_scales(rng)

        sample_times = np.arange(sample_interval, duration + 1e-9, sample_interval)
        num_samples = sample_times.shape[0]
        arrived = np.searchsorted(block_times, sample_times, side="right")

        lags = np.empty((num_samples, self.num_nodes), dtype=np.int16)
        for start in range(0, self.num_nodes, self.CHUNK):
            end = min(start + self.CHUNK, self.num_nodes)
            lags[:, start:end] = self._chunk_lags(
                rng,
                node_scale[start:end],
                block_times,
                block_mult,
                sample_times,
                arrived,
            )
        return ConsensusTimeSeries(
            times=sample_times, lags=lags, node_asns=self.node_asns
        )

    # ------------------------------------------------------------------
    def _block_times(self, rng: np.random.Generator, duration: float) -> np.ndarray:
        """Poisson block arrivals over [-burn_in, duration]."""
        span = duration + self.params.burn_in
        expected = int(span / self.params.block_interval) + 10
        margin = expected + int(4 * np.sqrt(expected)) + 10
        gaps = rng.exponential(self.params.block_interval, size=margin)
        times = np.cumsum(gaps) - self.params.burn_in
        while times[-1] < duration:  # pragma: no cover - extreme tail
            extra = rng.exponential(self.params.block_interval, size=margin)
            times = np.concatenate([times, times[-1] + np.cumsum(extra)])
        return times[times <= duration]

    def _block_multipliers(
        self, rng: np.random.Generator, num_blocks: int
    ) -> np.ndarray:
        """Per-block global delay multipliers: noise x storms x regime."""
        p = self.params
        noise = np.exp(rng.normal(0.0, p.storm_sigma, size=num_blocks))
        storms = np.where(
            rng.random(num_blocks) < p.storm_prob, p.storm_multiplier, 1.0
        )
        regime = np.empty(num_blocks)
        level = 0.0
        innovations = rng.normal(0.0, p.regime_sigma, size=num_blocks)
        for i in range(num_blocks):
            level = p.regime_rho * level + innovations[i]
            regime[i] = level
        return noise * storms * np.exp(regime)

    def _node_scales(self, rng: np.random.Generator) -> np.ndarray:
        """Per-node median catch-up delay (class x heterogeneity x AS)."""
        p = self.params
        classes = rng.choice(
            3,
            size=self.num_nodes,
            p=[p.synced_fraction, p.waverer_fraction, p.stuck_fraction],
        )
        medians = np.array(
            [p.synced_median_delay, p.waverer_median_delay, p.stuck_median_delay]
        )
        scale = medians[classes] * np.exp(
            rng.normal(0.0, p.node_sigma, size=self.num_nodes)
        )
        if self.node_asns is not None and (self.as_quality or self.default_quality != 1.0):
            quality = np.full(self.num_nodes, self.default_quality)
            for asn, factor in self.as_quality.items():
                quality[self.node_asns == asn] = factor
            scale = scale * quality
        return scale

    def _chunk_lags(
        self,
        rng: np.random.Generator,
        node_scale: np.ndarray,
        block_times: np.ndarray,
        block_mult: np.ndarray,
        sample_times: np.ndarray,
        arrived: np.ndarray,
    ) -> np.ndarray:
        """Lag matrix (samples x chunk) for one node chunk.

        For every (node, block) pair the sync time is
        ``block_time + scale * storm * lognormal``; the node's lag at a
        sample is the number of published blocks it has not yet synced.
        The per-node synced-block counts are accumulated with one
        ``np.bincount`` over the flattened (node, sample) grid, so the
        whole chunk is a handful of vectorized passes.
        """
        p = self.params
        chunk = node_scale.shape[0]
        num_blocks = block_times.shape[0]
        num_samples = sample_times.shape[0]

        noise = np.exp(rng.normal(0.0, p.delay_sigma, size=(chunk, num_blocks)))
        delays = node_scale[:, None] * block_mult[None, :] * noise
        sync_times = block_times[None, :] + delays

        # Scatter each sync event into the first sample index at which
        # the node counts as synced for that block.
        positions = np.searchsorted(sample_times, sync_times, side="left")
        positions += np.arange(chunk)[:, None] * (num_samples + 1)
        counts = np.bincount(
            positions.ravel(), minlength=chunk * (num_samples + 1)
        ).reshape(chunk, num_samples + 1)
        synced_by = np.cumsum(counts[:, :num_samples], axis=1)  # (chunk, samples)

        lag = arrived[None, :] - synced_by
        np.clip(lag, 0, p.max_lag, out=lag)
        return lag.astype(np.int16).T
