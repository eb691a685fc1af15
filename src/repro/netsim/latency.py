"""Propagation-delay model: the measured block-propagation distribution.

:class:`EmpiricalLatency` is an inverse-CDF sampler over *measured*
propagation-delay percentiles.  :data:`BITCOIN_PROPAGATION_2019` pins
the block-propagation distribution of the paper's era, as measured by
the Bitcoin P2P vivisection campaigns (Ben Mariem et al.) on top of
the Decker–Wattenhofer methodology; under the Nakamoto
latency–security framing (Li–Guo–Ren) this distribution *is* the Δ
that trades confirmation latency against safety.  The graph engine
consumes it through
:meth:`~repro.netsim.graph.GraphSpec.with_delay_model`, which
quantizes each sampled delay to whole simulation ticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..types import Seconds

__all__ = [
    "EmpiricalLatency",
    "BITCOIN_PROPAGATION_2019",
    "DELAY_MODELS",
    "quantize_ticks",
]


def quantize_ticks(seconds: Seconds, tick_seconds: Seconds) -> int:
    """Quantize a delay to whole simulation ticks.

    The rule — the one :meth:`EmpiricalLatency.sample_edge_ticks`
    applies per edge — is *nearest tick, ties to even* (so 1.5 ticks → 2, 2.5 ticks → 2),
    never below zero.  A delay under half a tick therefore rounds to 0:
    the contact lands in the same step, exactly the grid engines'
    zero-delay semantics.
    """
    if tick_seconds <= 0:
        raise ConfigurationError(
            "tick_seconds must be positive", tick=tick_seconds
        )
    if seconds < 0:
        raise ConfigurationError("seconds must be non-negative", seconds=seconds)
    return int(np.rint(seconds / tick_seconds))


@dataclass(frozen=True)
class EmpiricalLatency:
    """Inverse-CDF sampler fit to measured delay percentiles.

    ``percentiles`` is the calibration table: ``(quantile, seconds)``
    anchor points of the measured cumulative distribution, quantiles
    strictly increasing in ``[0, 1]`` and delays non-decreasing.  A
    sample draws ``u ~ U[0, 1)`` and linearly interpolates the inverse
    CDF between anchors; ``u`` outside the anchored quantile range
    clamps to the first/last anchor (NumPy ``interp`` semantics), so
    the tails are flat beyond the published percentiles rather than
    extrapolated.

    :meth:`sample_edge_ticks` is the vectorized per-edge path the graph
    engine's :meth:`~repro.netsim.graph.GraphSpec.with_delay_model`
    consumes, quantized by the :func:`quantize_ticks` rule.
    """

    percentiles: Tuple[Tuple[float, Seconds], ...]

    def __post_init__(self) -> None:
        if len(self.percentiles) < 2:
            raise ConfigurationError(
                "at least two percentile anchors required",
                anchors=len(self.percentiles),
            )
        quantiles = [q for q, _ in self.percentiles]
        delays = [s for _, s in self.percentiles]
        if any(not 0.0 <= q <= 1.0 for q in quantiles):
            raise ConfigurationError(
                "quantiles must lie in [0, 1]", quantiles=tuple(quantiles)
            )
        if any(b <= a for a, b in zip(quantiles, quantiles[1:])):
            raise ConfigurationError(
                "quantiles must be strictly increasing",
                quantiles=tuple(quantiles),
            )
        if delays[0] < 0 or any(b < a for a, b in zip(delays, delays[1:])):
            raise ConfigurationError(
                "delays must be non-negative and non-decreasing",
                delays=tuple(delays),
            )

    def sample(self, u: float) -> Seconds:
        """Inverse CDF at ``u``: the delay whose quantile is ``u``."""
        quantiles = [q for q, _ in self.percentiles]
        delays = [s for _, s in self.percentiles]
        return float(np.interp(u, quantiles, delays))

    def sample_edge_ticks(
        self,
        rng: np.random.Generator,
        size: int,
        tick_seconds: Seconds,
        max_ticks: Optional[int] = None,
    ) -> np.ndarray:
        """Vectorized per-edge delay draw, quantized to ticks.

        Draws ``size`` uniforms from ``rng``, maps them through the
        inverse CDF, and quantizes with the :func:`quantize_ticks`
        rule (nearest tick, ties to even).  ``max_ticks`` optionally
        caps the tail, bounding the delay queue.
        """
        if tick_seconds <= 0:
            raise ConfigurationError(
                "tick_seconds must be positive", tick=tick_seconds
            )
        if max_ticks is not None and max_ticks < 0:
            raise ConfigurationError(
                "max_ticks must be non-negative", max_ticks=max_ticks
            )
        quantiles = np.array([q for q, _ in self.percentiles])
        delays = np.array([s for _, s in self.percentiles])
        seconds = np.interp(rng.random(size), quantiles, delays)
        ticks = np.rint(seconds / tick_seconds).astype(np.int64)
        if max_ticks is not None:
            np.minimum(ticks, max_ticks, out=ticks)
        return ticks

    @property
    def median(self) -> Seconds:
        """The interpolated 50th-percentile delay."""
        return self.sample(0.5)


#: Block-propagation delay distribution of the paper's era, anchored
#: to the published measurement campaigns: the Bitcoin P2P vivisection
#: study (Ben Mariem et al.) reports a median of ~1.3 s for a block to
#: reach half the reachable network with a long measured tail (90th
#: percentile ~4 s, 99th ~9 s), consistent with the long-running
#: Decker–Wattenhofer-methodology propagation monitors.  These anchors
#: are the source percentiles EXPERIMENTS.md documents; under the
#: Li–Guo–Ren latency–security trade-off this distribution is the
#: network delay bound Δ.
BITCOIN_PROPAGATION_2019 = EmpiricalLatency(
    percentiles=(
        (0.10, 0.35),
        (0.25, 0.70),
        (0.50, 1.30),
        (0.75, 2.60),
        (0.90, 4.20),
        (0.99, 9.40),
    )
)

#: Named delay models selectable from the CLI (``--delay-model``);
#: names are stable identifiers that survive pickling across trial
#: workers, unlike the model objects themselves.
DELAY_MODELS = {
    "calibrated": BITCOIN_PROPAGATION_2019,
}
