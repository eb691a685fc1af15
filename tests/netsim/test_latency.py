"""Tests for the calibrated propagation-delay model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.netsim.latency import (
    BITCOIN_PROPAGATION_2019,
    DELAY_MODELS,
    EmpiricalLatency,
    quantize_ticks,
)


class TestQuantizeTicks:
    def test_nearest_tick_ties_to_even(self):
        # np.rint semantics: 1.5 ticks -> 2, 2.5 ticks -> 2.
        assert quantize_ticks(1.5, 1.0) == 2
        assert quantize_ticks(2.5, 1.0) == 2
        assert quantize_ticks(0.4, 1.0) == 0
        assert quantize_ticks(0.6, 1.0) == 1

    def test_sub_half_tick_rounds_to_zero(self):
        # Zero ticks == same-step delivery, the grid engines' semantics.
        assert quantize_ticks(1.3, 3.0) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            quantize_ticks(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            quantize_ticks(-0.1, 1.0)


class TestEmpiricalLatency:
    def test_inverse_cdf_interpolates_between_anchors(self):
        model = EmpiricalLatency(percentiles=((0.0, 0.0), (1.0, 10.0)))
        assert model.sample(0.25) == pytest.approx(2.5)
        assert model.median == pytest.approx(5.0)

    def test_tails_clamp_to_outer_anchors(self):
        model = BITCOIN_PROPAGATION_2019
        assert model.sample(0.0) == pytest.approx(0.35)  # below 10th pct
        assert model.sample(1.0) == pytest.approx(9.40)  # above 99th pct

    def test_published_percentiles_reproduced_at_the_anchors(self):
        model = BITCOIN_PROPAGATION_2019
        for quantile, seconds in model.percentiles:
            assert model.sample(quantile) == pytest.approx(seconds)
        assert model.median == pytest.approx(1.30)

    def test_scalar_delay_protocol(self):
        # At a 10 ms tick the per-edge draws are the delays themselves.
        draws = BITCOIN_PROPAGATION_2019.sample_edge_ticks(
            np.random.default_rng(7), 500, tick_seconds=0.01
        ) * 0.01
        assert ((draws >= 0.35) & (draws <= 9.40)).all()
        # The empirical median of many draws brackets the model median.
        assert 0.7 <= np.median(draws) <= 2.6

    def test_sample_edge_ticks_deterministic_and_quantized(self):
        a = BITCOIN_PROPAGATION_2019.sample_edge_ticks(
            np.random.default_rng(3), 2000, tick_seconds=1.0
        )
        b = BITCOIN_PROPAGATION_2019.sample_edge_ticks(
            np.random.default_rng(3), 2000, tick_seconds=1.0
        )
        assert np.array_equal(a, b)
        assert a.dtype == np.int64
        assert a.min() >= 0
        assert a.max() <= 9  # 99th-pct anchor 9.4 s rounds to 9 ticks

    def test_sample_edge_ticks_max_ticks_caps_the_tail(self):
        ticks = BITCOIN_PROPAGATION_2019.sample_edge_ticks(
            np.random.default_rng(3), 2000, tick_seconds=0.5, max_ticks=4
        )
        assert ticks.max() <= 4

    def test_paper_scale_tick_spans_zero_to_three(self):
        # At the paper's 10^4-node scale the span-ratio tick is 3 s;
        # the calibrated CDF then yields 0-3-tick delays (median 1.3 s
        # rounds to same-step delivery, the 9.4 s tail to 3 ticks).
        ticks = BITCOIN_PROPAGATION_2019.sample_edge_ticks(
            np.random.default_rng(0), 20_000, tick_seconds=3.0
        )
        assert ticks.min() == 0
        assert ticks.max() == 3

    def test_validation_rejects_bad_anchor_tables(self):
        with pytest.raises(ConfigurationError):
            EmpiricalLatency(percentiles=((0.5, 1.0),))  # one anchor
        with pytest.raises(ConfigurationError):
            EmpiricalLatency(percentiles=((0.5, 1.0), (0.5, 2.0)))  # flat q
        with pytest.raises(ConfigurationError):
            EmpiricalLatency(percentiles=((0.2, 2.0), (0.8, 1.0)))  # decreasing
        with pytest.raises(ConfigurationError):
            EmpiricalLatency(percentiles=((-0.1, 1.0), (0.5, 2.0)))  # q < 0
        with pytest.raises(ConfigurationError):
            EmpiricalLatency(percentiles=((0.1, -1.0), (0.5, 2.0)))  # s < 0

    def test_sample_edge_ticks_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            BITCOIN_PROPAGATION_2019.sample_edge_ticks(rng, 8, tick_seconds=0.0)
        with pytest.raises(ConfigurationError):
            BITCOIN_PROPAGATION_2019.sample_edge_ticks(
                rng, 8, tick_seconds=1.0, max_ticks=-1
            )

    def test_named_registry_exposes_the_calibrated_model(self):
        assert DELAY_MODELS["calibrated"] is BITCOIN_PROPAGATION_2019
