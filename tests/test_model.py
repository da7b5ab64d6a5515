import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supfield.model import (
    ModelParams,
    Point2,
    Regime,
    classify_regime,
    correlation,
    correlation_scale,
    covariance,
    sigma,
    variance_loss,
)

P_CRIT = ModelParams(alpha=1.0, beta=2.0, a=1.0)


class TestModelParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, beta=2.0, a=1.0),
            dict(alpha=2.5, beta=3.0, a=1.0),
            dict(alpha=1.0, beta=1.0, a=1.0),  # beta must exceed alpha
            dict(alpha=1.0, beta=0.5, a=1.0),
            dict(alpha=1.0, beta=2.0, a=0.0),
            dict(alpha=1.0, beta=2.0, a=-1.0),
            dict(alpha=1.0, beta=2.0, a=1.0, T=0.0),
            dict(alpha=1.0, beta=2.0, a=1.0, c1=-0.1),
            dict(alpha=1.0, beta=2.0, a=1.0, c2=-2.0),
            dict(alpha=1.0, beta=2.5, a=1.0, c1=1.0),  # a trend needs beta = 2
            dict(alpha=1.0, beta=1.5, a=1.0, c2=0.5),
            dict(alpha=math.nan, beta=2.0, a=1.0),
            dict(alpha=1.0, beta=math.inf, a=1.0),
        ],
    )
    def test_constructor_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_alpha_two_allowed(self):
        ModelParams(alpha=2.0, beta=3.0, a=1.0)

    def test_points_outside_square_rejected_not_clamped(self):
        with pytest.raises(ValueError):
            variance_loss(P_CRIT, Point2(1.2, 0.5))
        with pytest.raises(ValueError):
            correlation(P_CRIT, Point2(0.1, 0.1), Point2(-0.01, 0.5))
        with pytest.raises(ValueError, match="non-finite coordinates"):
            P_CRIT.check_point(Point2(math.nan, 0.5))


class TestVarianceLoss:
    def test_zero_at_origin(self):
        assert variance_loss(P_CRIT, Point2(0.0, 0.0)) == 0.0

    def test_unit_corner(self):
        assert variance_loss(P_CRIT, Point2(1.0, 1.0)) == 3.0

    def test_fractional_product_exponent(self):
        # (0.5 * 0.25)^(2/3) = (1/8)^(2/3) = 1/4 exactly
        p = ModelParams(alpha=1.0, beta=2.0, a=2.0 / 3.0)
        v = variance_loss(p, Point2(0.5, 0.25))
        assert v == pytest.approx(0.25 + 0.0625 + 0.25, abs=1e-15)

    @given(
        t1=st.floats(0.0, 1.0),
        t2=st.floats(0.0, 1.0),
        bump1=st.floats(0.0, 0.5),
        bump2=st.floats(0.0, 0.5),
    )
    def test_coordinatewise_nondecreasing(self, t1, t2, bump1, bump2):
        p = ModelParams(alpha=1.0, beta=2.0, a=0.7, T=2.0)
        lo = variance_loss(p, Point2(t1, t2))
        hi = variance_loss(p, Point2(t1 + bump1, t2 + bump2))
        assert hi >= lo


class TestSigma:
    def test_one_at_origin(self):
        assert sigma(P_CRIT, Point2(0.0, 0.0)) == 1.0

    def test_corner_value(self):
        assert sigma(P_CRIT, Point2(1.0, 1.0)) == pytest.approx(math.exp(-3.0), rel=1e-15, abs=0.0)

    def test_unique_max_on_grid(self):
        xs = np.linspace(0.0, 1.0, 21)
        vals = np.array([[sigma(P_CRIT, Point2(x, y)) for y in xs] for x in xs])
        assert vals[0, 0] == 1.0
        vals[0, 0] = -1.0
        assert vals.max() < 1.0

    def test_small_argument_expansion(self):
        # 1 - e^-v >= v - v^2/2, so the ratio sits in [1 - v/2, 1] for small v.
        p = ModelParams(alpha=1.0, beta=2.0, a=1.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = Point2(*(rng.uniform(0.0, 0.09, 2)))
            v = variance_loss(p, t)
            if not (0 < v <= 0.02):
                continue
            ratio = (1.0 - sigma(p, t)) / v
            assert 0.99 <= ratio <= 1.0

    def test_off_corner_deficit_bound(self):
        # off [0, delta]^2 the loss is at least delta^beta, so
        # sigma <= e^{-delta^beta} < 1 - (delta^beta/2)(1 - delta^beta/2)
        delta = 0.3
        p = P_CRIT
        xs = np.linspace(0.0, 1.0, 41)
        worst = max(
            sigma(p, Point2(x, y))
            for x in xs
            for y in xs
            if max(x, y) > delta
        )
        d = delta ** p.beta
        assert worst < 1.0 - 0.5 * d * (1.0 - 0.5 * d)


class TestCorrelation:
    def test_diagonal_is_one(self):
        assert correlation(P_CRIT, Point2(0.3, 0.7), Point2(0.3, 0.7)) == 1.0

    def test_explicit_value(self):
        r = correlation(P_CRIT, Point2(0.0, 0.0), Point2(0.3, 0.4))
        assert r == pytest.approx(math.exp(-0.7), rel=1e-15, abs=0.0)

    def test_symmetry_random_pairs(self, rng):
        for _ in range(100):
            t = Point2(*rng.uniform(0, 1, 2))
            s = Point2(*rng.uniform(0, 1, 2))
            assert correlation(P_CRIT, t, s) == correlation(P_CRIT, s, t)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 2.0])
    def test_separated_points_bounded_away_from_one(self, alpha):
        # alpha <= 1: subadditivity gives |d1|^a + |d2|^a >= (|d1|+|d2|)^a >= eps^a;
        # alpha >= 1: the power mean gives the extra factor 2^(1-a)
        p = ModelParams(alpha=alpha, beta=2.5, a=1.0)
        eps = 0.2
        bound = math.exp(-(eps ** alpha) * min(1.0, 2.0 ** (1.0 - alpha)))
        xs = np.linspace(0.0, 1.0, 9)
        pts = [Point2(x, y) for x in xs for y in xs]
        worst = max(
            correlation(p, t, s)
            for t in pts
            for s in pts
            if math.hypot(t.t1 - s.t1, t.t2 - s.t2) >= eps
        )
        assert worst <= bound + 1e-15


class TestCovariance:
    def test_unit_variance_at_origin(self):
        assert covariance(P_CRIT, Point2(0, 0), Point2(0, 0)) == 1.0

    def test_diagonal_is_sigma_squared(self, rng):
        for _ in range(20):
            t = Point2(*rng.uniform(0, 1, 2))
            assert covariance(P_CRIT, t, t) == pytest.approx(
                sigma(P_CRIT, t) ** 2, rel=1e-15, abs=0.0
            )

    @pytest.mark.parametrize("alpha,beta,a", [(1.0, 2.0, 1.0), (0.8, 2.0, 0.5), (2.0, 3.0, 2.0)])
    def test_gram_psd_random_points(self, alpha, beta, a, rng):
        p = ModelParams(alpha=alpha, beta=beta, a=a)
        pts = [Point2(*rng.uniform(0, 1, 2)) for _ in range(25)]
        gram = np.array([[covariance(p, t, s) for s in pts] for t in pts])
        assert np.allclose(gram, gram.T)
        assert np.linalg.eigvalsh(gram).min() >= -1e-10


class TestRegime:
    def test_example_split(self):
        assert classify_regime(ModelParams(1, 2, 0.5)) is Regime.SIDE_DOMINATED
        assert classify_regime(ModelParams(1, 2, 2.0 / 3.0)) is Regime.LOG_PRODUCT
        assert classify_regime(ModelParams(1, 2, 1.0)) is Regime.CRITICAL_PRODUCT
        assert classify_regime(ModelParams(1, 2, 2.0)) is Regime.CLASSICAL

    @given(
        alpha=st.floats(0.2, 2.0),
        beta_gap=st.floats(0.05, 3.0),
    )
    def test_boundaries_map_into_log_and_critical(self, alpha, beta_gap):
        beta = alpha + beta_gap
        a0 = alpha * beta / (alpha + beta)
        assert classify_regime(ModelParams(alpha, beta, a0)) is Regime.LOG_PRODUCT
        assert classify_regime(ModelParams(alpha, beta, beta / 2.0)) is Regime.CRITICAL_PRODUCT

    def test_pure_function(self):
        p = ModelParams(1.3, 2.1, 0.9)
        assert classify_regime(p) is classify_regime(p)

    def test_threshold_value(self):
        assert ModelParams(1, 2, 1).a0 == pytest.approx(2.0 / 3.0, rel=1e-15, abs=0.0)


class TestCorrelationScale:
    def test_power_law(self):
        assert correlation_scale(ModelParams(1, 2, 1), 10.0) == pytest.approx(
            0.01, rel=1e-14, abs=0.0
        )
        assert correlation_scale(ModelParams(2, 3, 1), 100.0) == pytest.approx(
            0.01, rel=1e-14, abs=0.0
        )
        assert correlation_scale(ModelParams(0.5, 2, 1), 10.0) == pytest.approx(
            1e-4, rel=1e-12, abs=0.0
        )

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            correlation_scale(P_CRIT, 0.0)
        with pytest.raises(ValueError, match="level u must be finite, got inf"):
            correlation_scale(P_CRIT, math.inf)
