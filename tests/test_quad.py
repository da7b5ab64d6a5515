import math

import pytest
from scipy import integrate

from supfield.quad import (
    AsymptoticPrediction,
    ConvergenceError,
    QuadratureConfig,
    g_beta,
    k_beta,
    normal_survival,
    trend_k,
    trend_l,
)

from oracles import mc_k_beta, phi_oracle, trend_l_closed_form

CFG = QuadratureConfig()


class TestConfig:
    def test_defaults_valid(self):
        QuadratureConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(abs_tol=-1.0),
            dict(abs_tol=0.0, rel_tol=0.0),
            dict(max_subdivisions=0),
            dict(tail_cut_tol=0.0),
            dict(tail_cut_tol=1.0),  # log(1/tol) <= 0: no cut point exists
            dict(tail_cut_tol=2.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)


class TestNormalSurvival:
    def test_symmetry_point(self):
        assert normal_survival(0.0) == 0.5

    def test_975_quantile(self):
        assert normal_survival(1.959963985) == pytest.approx(0.025, abs=1e-9)

    def test_mills_bracket(self):
        u = 5.0
        lo = phi_oracle(u) * (1.0 / u - 1.0 / u ** 3)
        hi = phi_oracle(u) / u
        assert lo < normal_survival(u) < hi

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normal_survival(math.inf)


class TestGBeta:
    def test_beta_one(self):
        assert g_beta(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_beta_two(self):
        assert g_beta(2.0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)

    @pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0])
    def test_agrees_with_quadrature(self, beta):
        # scipy's own infinite-interval QUADPACK, independent of the library
        quad_val, _ = integrate.quad(
            lambda x: math.exp(-(x ** beta)), 0.0, math.inf, epsabs=1e-13, epsrel=1e-12
        )
        assert abs(g_beta(beta) - quad_val) <= 1e-9


class TestKBeta:
    def test_beta_two_closed_form(self):
        assert k_beta(2.0) == pytest.approx(math.pi / (3.0 * math.sqrt(3.0)), abs=1e-10)

    def test_matches_trend_k_at_zero(self):
        assert abs(k_beta(2.0) - trend_k(0.0, 0.0)) <= 1e-10

    def test_beta_one_against_mc_oracle(self):
        mc, se = mc_k_beta(1.0, 400_000, seed=42)
        assert abs(k_beta(1.0) - mc) <= 3.0 * se

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            k_beta(0.0)


class TestTrendL:
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_closed_form(self, c):
        assert abs(trend_l(c) - trend_l_closed_form(c)) <= 1e-9

    def test_zero_is_gaussian_integral(self):
        assert abs(trend_l(0.0) - math.sqrt(math.pi) / 2.0) <= 1e-9

    def test_monotone_in_c(self):
        assert trend_l(0.0) > trend_l(1.0) > trend_l(2.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            trend_l(-0.5)

    def test_convergence_error_carries_estimate(self):
        bad_cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=1)
        with pytest.raises(ConvergenceError) as exc_info:
            trend_l(3.0, bad_cfg)
        err = exc_info.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0


class TestTrendK:
    def test_zero_trend(self):
        assert trend_k(0.0, 0.0) == pytest.approx(math.pi / (3.0 * math.sqrt(3.0)), abs=1e-10)

    def test_swap_symmetry_exact(self):
        assert trend_k(1.0, 2.0) == trend_k(2.0, 1.0)

    def test_monotone(self):
        assert trend_k(5.0, 5.0) < trend_k(0.0, 0.0)


class TestAsymptoticPrediction:
    def test_evaluate(self):
        pred = AsymptoticPrediction(2.0, 1.0, 1, uses_psi=True)
        u = 3.0
        expected = 2.0 * u * math.log(u) * normal_survival(u)
        assert pred.evaluate(u) == pytest.approx(expected, rel=1e-14)

    def test_without_psi(self):
        pred = AsymptoticPrediction(1.5, -2.0, 0, uses_psi=False)
        assert pred.evaluate(10.0) == pytest.approx(0.015, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            AsymptoticPrediction(-1.0, 0.0, 0)
        with pytest.raises(ValueError):
            AsymptoticPrediction(1.0, 0.0, 2)
