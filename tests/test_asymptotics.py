import math

import pytest

from supfield.asymptotics import lookup_h, predict, regime_sweep
from supfield.model import ModelParams, Regime
from supfield.quad import g_beta, k_beta, trend_k, trend_l

SQRT_PI = math.sqrt(math.pi)


class TestLookupH:
    def test_known_value(self):
        assert lookup_h(1.0, None) == 1.0

    def test_unknown_alpha_requires_estimate(self):
        with pytest.raises(ValueError, match="pickands_constant"):
            lookup_h(1.5, None)

    def test_explicit_value_wins(self):
        assert lookup_h(1.5, 0.8) == 0.8
        with pytest.raises(ValueError):
            lookup_h(1.0, -1.0)
        with pytest.raises(ValueError, match="h_alpha must be positive and finite, got inf"):
            lookup_h(1.0, math.inf)


class TestPredictExampleTable:
    """The quadratic model with Brownian local structure: alpha=1, beta=2, H=1."""

    def test_side_dominated(self):
        pred = predict(ModelParams(1, 2, 0.5))
        assert pred.prefactor == pytest.approx(SQRT_PI, abs=1e-10)
        assert (pred.u_power, pred.log_power) == (1.0, 0)

    def test_log_boundary(self):
        pred = predict(ModelParams(1, 2, 2.0 / 3.0))
        assert pred.prefactor == pytest.approx(0.75 * SQRT_PI, abs=1e-10)
        assert pred.u_power == pytest.approx(1.0, abs=1e-12)
        assert pred.log_power == 1

    def test_critical(self):
        pred = predict(ModelParams(1, 2, 1.0))
        assert pred.prefactor == pytest.approx(math.pi / (3 * math.sqrt(3)), abs=1e-10)
        assert (pred.u_power, pred.log_power) == (2.0, 0)

    def test_classical(self):
        pred = predict(ModelParams(1, 2, 2.0))
        assert pred.prefactor == pytest.approx(math.pi / 4.0, abs=1e-10)
        assert (pred.u_power, pred.log_power) == (2.0, 0)

    def test_uses_psi(self):
        assert predict(ModelParams(1, 2, 2.0)).uses_psi is True


class TestOrderStructure:
    def test_continuity_identity_at_a0(self, rng):
        # 4/alpha - 2/a0 == 2/alpha - 2/beta for a0 = alpha*beta/(alpha+beta)
        for _ in range(20):
            alpha = rng.uniform(0.2, 2.0)
            beta = alpha + rng.uniform(0.05, 3.0)
            a0 = alpha * beta / (alpha + beta)
            lhs = 4.0 / alpha - 2.0 / a0
            rhs = 2.0 / alpha - 2.0 / beta
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_log_regime_prefactor_vanishes_at_half_beta(self):
        beta = 2.0
        prev = math.inf
        for eps in (0.1, 0.03, 0.01, 0.003, 0.001):
            pred = predict(ModelParams(1.0, beta, beta / 2 * (1 - eps)))
            assert pred.log_power == 1
            assert pred.prefactor < prev
            prev = pred.prefactor
        assert prev < 0.02

    def test_critical_below_classical(self):
        for beta in (1.0, 1.5, 2.0, 3.0):
            gb = g_beta(beta)
            assert k_beta(beta) < gb * gb


class TestPredictTrend:
    @pytest.mark.parametrize("a", [0.5, 2.0 / 3.0, 1.0, 2.0])
    def test_zero_trend_reduces_to_predict(self, a):
        # the trend constants L(c), K(c1, c2) join G_2, K_2 as c -> 0
        base = predict(ModelParams(1.0, 2.0, a))
        trend = predict(ModelParams(1.0, 2.0, a, c1=1e-12, c2=1e-12))
        assert abs(trend.prefactor - base.prefactor) <= 1e-10 * base.prefactor
        assert trend.u_power == base.u_power
        assert trend.log_power == base.log_power

    def test_rejects_beta_not_two(self):
        with pytest.raises(ValueError, match="beta = 2"):
            predict(ModelParams(1.0, 2.5, 1.0, c1=1.0))

    def test_side_dominated_sum_of_sides(self):
        p = ModelParams(1.0, 2.0, 0.5, c1=1.0, c2=2.0)
        pred = predict(p)
        assert pred.prefactor == pytest.approx(trend_l(1.0) + trend_l(2.0), rel=1e-10)
        assert (pred.u_power, pred.log_power) == (1.0, 0)

    def test_log_regime_trend_free(self):
        base = predict(ModelParams(1.0, 2.0, 0.8))
        trended = predict(ModelParams(1.0, 2.0, 0.8, c1=3.0, c2=7.0))
        assert base.prefactor == trended.prefactor

    def test_critical_uses_trend_constant(self):
        p = ModelParams(1.0, 2.0, 1.0, c1=0.5, c2=1.5)
        assert predict(p).prefactor == pytest.approx(trend_k(0.5, 1.5), rel=1e-10)

    def test_classical_uses_product_of_sides(self):
        p = ModelParams(1.0, 2.0, 1.5, c1=0.5, c2=1.5)
        assert predict(p).prefactor == pytest.approx(
            trend_l(0.5) * trend_l(1.5), rel=1e-10
        )

    def test_one_sided_trend_uses_trend_constants(self):
        # one zero slope still selects L: the untrended side is L(0), not G_2
        p = ModelParams(1.0, 2.0, 1.5, c1=0.0, c2=1.5)
        assert predict(p).prefactor == trend_l(0.0) * trend_l(1.5)


class TestRegimeSweep:
    def test_order_continuous_at_boundaries(self):
        a_values = [0.5, 0.66, 2.0 / 3.0, 0.7, 0.9, 1.0, 1.2, 2.0]
        rows = regime_sweep(ModelParams(1.0, 2.0, 1.0), a_values)
        by_a = {r.a: r for r in rows}
        # below and at a0 the u-power is 1; the log flag switches on at a0
        assert by_a[0.5].u_power == 1.0 and by_a[0.5].log_power == 0
        assert by_a[2.0 / 3.0].u_power == pytest.approx(1.0, abs=1e-12)
        assert by_a[2.0 / 3.0].log_power == 1
        assert by_a[0.9].u_power == pytest.approx(4.0 - 2.0 / 0.9, rel=1e-12)
        # from beta/2 on the power freezes at 2 and the log switches off
        assert by_a[1.0].u_power == 2.0 and by_a[1.0].log_power == 0
        assert by_a[1.2].u_power == 2.0
        assert by_a[2.0].u_power == 2.0

    def test_regime_column(self):
        rows = regime_sweep(ModelParams(1.0, 2.0, 1.0), [0.5, 0.8, 1.0, 1.5])
        assert [r.regime for r in rows] == [
            Regime.SIDE_DOMINATED,
            Regime.LOG_PRODUCT,
            Regime.CRITICAL_PRODUCT,
            Regime.CLASSICAL,
        ]

    def test_keeps_the_trend(self):
        p = ModelParams(1.0, 2.0, 1.0, c1=0.7, c2=1.3)
        side, critical = regime_sweep(p, [0.5, 1.0], h_alpha=1.37)
        assert side.prefactor == pytest.approx(1.37 * (trend_l(0.7) + trend_l(1.3)), rel=1e-12)
        assert critical.prefactor == pytest.approx(1.37 ** 2 * trend_k(0.7, 1.3), rel=1e-12)
