import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from supfield import quad
from supfield.quad import (
    AsymptoticPrediction,
    ConvergenceError,
    QuadratureConfig,
    _check_converged,
    _gk21,
    g_beta,
    k_beta,
    normal_survival,
    side_constants,
    trend_k,
    trend_l,
)

from oracles import (
    k_beta_series,
    log_k_beta_oracle,
    mc_k_beta,
    phi_oracle,
    trend_k_cartesian,
    trend_l_closed_form,
)

CFG = QuadratureConfig()


class TestConfig:
    def test_defaults_valid(self):
        QuadratureConfig()

    def test_only_the_tolerances_are_settable(self):
        assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["abs_tol", "rel_tol"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(abs_tol=-1.0),
            dict(abs_tol=0.0, rel_tol=0.0),
            dict(rel_tol=-1.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)

    @pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_tolerance_refused(self, name, value):
        # max(nan, x) is nan and an inf tolerance never trips, so either would
        # turn off every convergence check
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            QuadratureConfig(**{name: value})


class TestIntegratePanels:
    """`_gk21`, the one quadrature engine, on its panels between breakpoints."""

    def test_tail_bound_skips_panels_without_changing_a_bit(self):
        # exp(-x) on [0, 80]: past x ~ 46 each panel is below 2^-60 of the
        # sum but far above underflow, so only the bound can skip it
        breakpoints = [float(k) for k in range(81)]
        nodes = []

        def f(x):
            nodes.extend(x.ravel())
            return np.exp(-x)

        full, _ = _gk21(f, breakpoints, CFG.abs_tol, CFG.rel_tol)
        full_nodes = len(nodes)
        nodes.clear()

        def bound(lo):
            return (80.0 - lo) * math.exp(-lo)

        value, _ = _gk21(f, breakpoints, CFG.abs_tol, CFG.rel_tol, bound)
        assert value == full
        # (80 - 46) e^-46 is the first bound under 2^-60: panels from 46 on are skipped
        assert max(nodes) < 46.0 and len(nodes) < 0.7 * full_nodes

    def test_zero_bound_skips_while_the_sum_is_zero(self):
        nodes = []

        def f(x):
            nodes.extend(x.ravel())
            return np.zeros_like(x)

        zero = _gk21(f, [0.0, 1.0, 2.0], CFG.abs_tol, CFG.rel_tol, lambda lo: 0.0)
        assert zero == (0.0, 0.0)
        assert nodes == []

    @pytest.mark.parametrize(
        "f,hi,exact",
        [
            (lambda x: -np.log(x), 1.0, 1.0),
            (lambda x: 1.0 / np.sqrt(x), 1.0, 2.0),
            (lambda x: np.exp(-x * x), 6.0, 0.5 * math.sqrt(math.pi) * (1.0 - math.erfc(6.0))),
        ],
        ids=["log", "inverse-sqrt", "gaussian"],
    )
    def test_closed_form_is_reached_or_refused(self, f, hi, exact):
        # the two endpoint singularities and a bulk far from the end of its panel
        cfg = QuadratureConfig(abs_tol=0.0, rel_tol=1e-13)
        value, err = _gk21(f, [0.0, hi], 0.0, cfg.rel_tol)
        try:
            _check_converged(value, err, cfg, "closed form", relative=True)
        except ConvergenceError:
            return
        assert value == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_one_panel_is_quadpack_qk21(self):
        # a first panel that meets its tolerance is dqk21's result, bit for bit
        def f(x):
            return np.exp(-x * x - 0.5 * x)

        value, _ = _gk21(f, [0.0, 0.5], 1e-12, 1e-10)
        assert value == integrate.quad(lambda x: math.exp(-x * x - 0.5 * x), 0.0, 0.5)[0]

    def test_panel_limit_stops_the_bisection(self, monkeypatch):
        # 1/sqrt(x) needs dozens of halvings toward 0; five panels leave the error
        # estimate far above the tolerance for the caller's check
        monkeypatch.setattr(quad, "MAX_SUBDIVISIONS", 5)
        halves = []

        def f(x):
            halves.append(len(x))
            return 1.0 / np.sqrt(x)

        value, err = _gk21(f, [0.0, 1.0], 0.0, 1e-13)
        assert sum(halves) == 1 + 2 * 4 and err > 1e-6  # four halvings leave five panels
        with pytest.raises(ConvergenceError):
            _check_converged(value, err, CFG, "inverse square root")


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
        assert g_beta(1.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_beta_two(self):
        assert g_beta(2.0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0])
    def test_agrees_with_quadrature(self, beta):
        # scipy's own infinite-interval QUADPACK, independent of the library
        quad_val, _ = integrate.quad(
            lambda x: math.exp(-(x ** beta)), 0.0, math.inf, epsabs=1e-13, epsrel=1e-12
        )
        assert abs(g_beta(beta) - quad_val) <= 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="beta must be positive, got 0.0"):
            g_beta(0.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_rejects_non_finite(self, beta):
        # Gamma(1 + 1/beta) reads Gamma(1) = 1.0 at beta = inf instead of refusing
        with pytest.raises(ValueError, match=f"beta must be finite, got {beta}"):
            g_beta(beta)


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

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_rejects_non_finite(self, beta):
        with pytest.raises(ValueError, match=f"a finite beta > 0; got {beta}"):
            k_beta(beta)

    @pytest.mark.parametrize("beta", [0.5, 0.2, 0.0116, 0.01, 0.0094])
    def test_small_beta_against_log_oracle(self, beta):
        # below beta = 2/171 Gamma(2/beta) overflows a float while K_beta does not;
        # at 0.0094, K_beta = 2e304, just inside the float range
        expected = log_k_beta_oracle(beta)
        assert math.log(k_beta(beta)) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_refuses_beta_where_k_beta_overflows(self):
        # the oracle puts the overflow between beta = 0.0094 and 0.0093
        assert log_k_beta_oracle(0.0093) > math.log(sys.float_info.max)
        with pytest.raises(ValueError, match="overflows a float at beta = 0.0093"):
            k_beta(0.0093)

    def test_beta_two_is_the_nearest_double(self):
        assert k_beta(2.0) == 0.6045997880780726  # pi / (3 sqrt 3), correctly rounded

    @pytest.mark.parametrize("beta", [0.2, 0.5, 1.0, 1.5, 3.0, 4.0, 10.0, 20.0, 50.0])
    def test_matches_series(self, beta):
        # beta > 2 puts an integrable t^(q-1) singularity at the ends of the angle range;
        # at beta = 0.2 the series itself cancels to about 1e-11 relative
        rel = 1e-10 if beta == 0.2 else 1e-12
        assert k_beta(beta) == pytest.approx(k_beta_series(beta), rel=rel, abs=0.0)


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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: trend_l(math.nan),
            lambda: trend_l(math.inf),
            lambda: side_constants(2.0, math.nan, 0.0),
        ],
        ids=["nan", "inf", "side-constants-nan"],
    )
    def test_rejects_non_finite(self, call):
        with pytest.raises(ValueError, match="c must be nonnegative and finite, got (nan|inf)"):
            call()

    @pytest.mark.parametrize("c1,c2", [(1.0, 0.0), (0.0, 0.5)])
    def test_side_constants_refuse_a_trend_off_beta_two(self, c1, c2):
        # L(c) is the beta = 2 side constant; at beta = 3 it would be silently wrong
        with pytest.raises(ValueError, match="a trend requires beta = 2 exactly, got beta=3.0"):
            side_constants(3.0, c1, c2)

    def test_convergence_error_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(quad, "MAX_SUBDIVISIONS", 1)
        bad_cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14)
        with pytest.raises(ConvergenceError) as exc_info:
            trend_l(3.0, bad_cfg)
        err = exc_info.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0

    def test_convergence_error_is_raised_not_warned(self, monkeypatch):
        # the engine reports a failed tolerance through its error estimate alone
        monkeypatch.setattr(quad, "MAX_SUBDIVISIONS", 1)
        bad_cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                trend_l(3.0, bad_cfg)


class TestTrendK:
    def test_zero_trend(self):
        assert trend_k(0.0, 0.0) == pytest.approx(math.pi / (3.0 * math.sqrt(3.0)), abs=1e-10)

    def test_swap_symmetry_exact(self):
        for c1, c2 in [(1.0, 2.0), (1e4, 3.0)]:
            assert trend_k(c1, c2) == trend_k(c2, c1)

    def test_monotone(self):
        assert trend_k(5.0, 5.0) < trend_k(0.0, 0.0)

    def test_rejects_negative_slope(self):
        with pytest.raises(ValueError, match="trend slopes must be nonnegative"):
            trend_k(-1.0, 0.0)

    @pytest.mark.parametrize("c1, c2", [(math.nan, 0.0), (0.0, math.inf)])
    def test_rejects_non_finite_slope(self, c1, c2, deadline):
        # unrefused, a nan slope never leaves the large-z series loop of g
        with pytest.raises(ValueError, match="trend slopes must be nonnegative and finite"):
            trend_k(c1, c2)

    @pytest.mark.parametrize(
        "c1, c2",
        [(0.5, 0.0), (1.0, 2.0), (3.0, 3.0), (10.0, 0.1), (50.0, 20.0), (500.0, 500.0),
         (1e4, 1e4), (1e4, 0.0)],
    )
    def test_matches_cartesian_oracle(self, c1, c2):
        # from (50, 20) on, z > 8 somewhere: the large-z series of g
        assert trend_k(c1, c2) == pytest.approx(trend_k_cartesian(c1, c2), rel=1e-13, abs=0.0)


class TestCriticalConstantIsOneIntegral:
    @pytest.mark.parametrize("call", [lambda: k_beta(1.5), lambda: trend_k(3.0, 1.0)])
    def test_one_panel_call(self, monkeypatch, call):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _gk21(*args, **kwargs)

        monkeypatch.setattr(quad, "_gk21", counting)
        call()
        assert len(calls) == 1


class TestAsymptoticPrediction:
    def test_evaluate(self):
        pred = AsymptoticPrediction(2.0, 1.0, 1, uses_psi=True)
        u = 3.0
        expected = 2.0 * u * math.log(u) * normal_survival(u)
        assert pred.evaluate(u) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_without_psi(self):
        pred = AsymptoticPrediction(1.5, -2.0, 0, uses_psi=False)
        assert pred.evaluate(10.0) == pytest.approx(0.015, rel=1e-14, abs=0.0)

    def test_overflowing_power_evaluated_in_log_space(self):
        # 6^400 overflows a float; 6^400 Psi(6) = 1.8e302 does not
        from scipy import special

        pytest.raises(OverflowError, pow, 6.0, 400.0)
        value = AsymptoticPrediction(1.0, 400.0, 0).evaluate(6.0)
        log_space = math.exp(400.0 * math.log(6.0) + float(special.log_ndtr(-6.0)))
        assert math.isfinite(value)
        assert value == pytest.approx(log_space, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan])
    def test_non_finite_level_refused(self, u):
        # Psi(inf) = 0: a prediction of inf there would come from adding +inf and -inf
        for pred in (AsymptoticPrediction(1.0, 2.0, 0), AsymptoticPrediction(1.0, -2.0, 1, False)):
            with pytest.raises(ValueError, match=f"u must be finite, got {u}"):
                pred.evaluate(u)

    @pytest.mark.parametrize("u", [1.0, 0.5])
    def test_level_not_above_1_refused(self, u):
        # log u <= 0 there: the log form would be negative below 1 and 0 at 1
        for pred in (AsymptoticPrediction(1.0, 2.0, 0), AsymptoticPrediction(1.0, -2.0, 1, False)):
            with pytest.raises(ValueError, match=f"u must exceed 1, .*; got {u}"):
                pred.evaluate(u)

    def test_level_beyond_float_range(self):
        assert AsymptoticPrediction(1.0, 2.0, 0).evaluate(1e200) == 0.0
        assert AsymptoticPrediction(1.0, 2.0, 1).evaluate(1e200) == 0.0
        assert AsymptoticPrediction(1.0, 2.0, 0, uses_psi=False).evaluate(1e200) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            AsymptoticPrediction(-1.0, 0.0, 0)
        with pytest.raises(ValueError):
            AsymptoticPrediction(1.0, 0.0, 2)
