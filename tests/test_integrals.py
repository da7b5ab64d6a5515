import math
import warnings

import pytest
from scipy import integrate

from supfield import quad
from supfield.quad import (
    IntegralSpec,
    QuadratureConfig,
    _integrate_panels,
    i_gamma,
    i_gamma_asymptote,
    inner_a,
    j_lambda_ratio,
    trend_k,
    trend_l,
)

from oracles import (
    i_log_ratio_second_order,
    inner_a_cosh_form,
    j_ratio_second_order,
)

CFG = QuadratureConfig()


def spec(gamma=1.0, beta=2.0, a=1.0, delta=1.0, u=10.0, c1=0.0, c2=0.0):
    return IntegralSpec(gamma=gamma, beta=beta, a=a, delta=delta, u=u, c1=c1, c2=c2)


class TestIGamma:
    def test_non_finite_level_refused(self):
        with pytest.raises(ValueError, match="level u must be finite, got inf"):
            spec(u=math.inf)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(delta=0.0), "delta must be positive, got 0.0"),
            (dict(c1=-1.0), "trend slopes must be nonnegative"),
            (dict(gamma=math.inf), "gamma must be finite, got inf"),
            (dict(beta=math.inf), "beta must be finite, got inf"),
            (dict(a=math.inf), "a must be finite, got inf"),
            (dict(delta=math.inf), "delta must be finite, got inf"),
            (dict(c1=math.nan), "c1 must be finite, got nan"),
            (dict(c2=math.inf), "c2 must be finite, got inf"),
        ],
        ids=[
            "zero-delta", "negative-slope", "inf-gamma", "inf-beta", "inf-a", "inf-delta",
            "nan-slope", "inf-slope",
        ],
    )
    def test_bad_spec_refused(self, kwargs, message, deadline):
        # unrefused, a nan slope would hang i_gamma_asymptote in the large-z series of g
        with pytest.raises(ValueError, match=message):
            i_gamma_asymptote(spec(**kwargs), CFG)

    def test_small_u_limit_is_area(self):
        val = i_gamma(spec(u=1e-6), CFG)
        assert val == pytest.approx(1.0, rel=1e-6, abs=0.0)

    def test_classical_branch_u100(self):
        s = spec(a=2.0, u=100.0)
        val = i_gamma(s, CFG) * 100.0 ** (4.0 / s.beta)
        g2 = math.gamma(1.5)
        assert val == pytest.approx(g2 * g2, rel=1e-3, abs=0.0)

    def test_critical_branch_u100(self):
        s = spec(a=1.0, u=100.0)
        val = i_gamma(s, CFG) * 100.0 ** 2
        assert val == pytest.approx(math.pi / (3.0 * math.sqrt(3.0)), rel=1e-3, abs=0.0)

    def test_monotone_decreasing_in_u_and_gamma(self):
        assert i_gamma(spec(u=5.0), CFG) > i_gamma(spec(u=8.0), CFG)
        assert i_gamma(spec(gamma=1.0), CFG) > i_gamma(spec(gamma=2.0), CFG)

    def test_increasing_in_a_on_unit_square(self):
        # with delta <= 1 the product xy is < 1, so a larger exponent
        # shrinks the product penalty and enlarges the integral
        assert i_gamma(spec(a=0.5, u=5.0), CFG) < i_gamma(spec(a=1.0, u=5.0), CFG)
        assert i_gamma(spec(a=1.0, u=5.0), CFG) < i_gamma(spec(a=2.0, u=5.0), CFG)

    def test_log_branch_ratio_tracks_second_order_oracle(self):
        s = spec(a=0.8, u=1000.0)
        ratio = i_gamma(s, CFG) / i_gamma_asymptote(s, CFG).evaluate(s.u)
        oracle = i_log_ratio_second_order(s.u, s.gamma, s.beta, s.a)
        assert ratio == pytest.approx(oracle, abs=0.01)


def i_gamma_all_panels(sp):
    """i_gamma's nested quadrature summed over every dyadic panel, none skipped."""
    b, a, u = sp.beta, sp.a, sp.u
    g2 = sp.gamma * u * u
    floor = min(g2 ** (-1.0 / b), g2 ** (-1.0 / (2.0 * a)), sp.delta) / 64.0
    pts = [sp.delta]
    while pts[-1] > floor and len(pts) <= 80:
        pts.append(0.5 * pts[-1])
    pts = [0.0] + pts[::-1]

    def f(x, y):
        if (sp.c1, sp.c2) == (0.0, 0.0):
            return math.exp(-g2 * (x ** b + y ** b + (x * y) ** a))
        return math.exp(-g2 * (x * x + y * y + (x * y) ** a) - u * (sp.c1 * x + sp.c2 * y))

    def panels(h):
        total = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            total += integrate.quad(h, lo, hi, epsabs=0.0, epsrel=CFG.rel_tol, limit=2000)[0]
        return total

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return panels(lambda x: panels(lambda y: f(x, y)))


class TestIGammaSkippedPanels:
    # panels whose tail bound is below 2^-60 of the running sum are skipped,
    # which must leave every bit of the value unchanged
    @pytest.mark.parametrize(
        "sp",
        [
            spec(a=2.0, u=1e3),
            spec(a=1.0, u=1e3),
            spec(a=0.8, u=1e3),
            spec(a=1.0, u=1e3, c2=1.5),
            spec(a=2.0, u=1e4),
            spec(a=2.0, u=1e5),
            spec(a=1.0, u=1e4),
            spec(a=1.0, u=1e5),
            spec(a=0.8, u=1e4),
            spec(a=0.8, u=1e5),
            spec(gamma=2.0, a=1.0, u=1e3, c1=1.0, c2=1.0),
            spec(beta=1.0, a=0.4, delta=0.5, u=1e3),
            spec(beta=3.0, a=2.0, delta=0.5, u=1e3),
            spec(a=2.0, u=30.0),
        ],
        ids=[
            "classical",
            "critical",
            "log",
            "critical-trend",
            "classical-1e4",
            "classical-1e5",
            "critical-1e4",
            "critical-1e5",
            "log-1e4",
            "log-1e5",
            "gamma2-trend",
            "beta1-delta0.5",
            "beta3-delta0.5",
            "no-underflow",
        ],
    )
    def test_equals_sum_over_all_panels(self, sp):
        assert i_gamma(sp, CFG) == i_gamma_all_panels(sp)

    def test_outer_loop_stops_before_underflow(self, monkeypatch):
        # at u = 30 the integrand stays above e^-900 on [0, 1]^2, so no
        # panel underflows, yet the outer sum must stop before x = 1/2
        sp = spec(a=2.0, u=30.0)
        reach = []

        def spy(f, breakpoints, *args):
            xs = []

            def g(x):
                xs.append(x)
                return f(x)

            result = _integrate_panels(g, breakpoints, *args)
            reach.append(max(xs))
            return result

        monkeypatch.setattr(quad, "_integrate_panels", spy)
        value = i_gamma(sp, CFG)
        assert reach[-1] < 0.5 * sp.delta  # the outer call comes last
        assert value == i_gamma_all_panels(sp)


class TestIGammaAsymptote:
    def test_log_branch_example(self):
        pred = i_gamma_asymptote(spec(a=2.0 / 3.0), CFG)
        assert pred.prefactor == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-12, abs=0.0)
        assert pred.u_power == pytest.approx(-3.0)
        assert pred.log_power == 1

    def test_critical_branch_example(self):
        pred = i_gamma_asymptote(spec(a=1.0), CFG)
        assert pred.prefactor == pytest.approx(math.pi / (3.0 * math.sqrt(3.0)), abs=1e-10)
        assert (pred.u_power, pred.log_power) == (-2.0, 0)

    def test_classical_branch_with_gamma(self):
        pred = i_gamma_asymptote(spec(gamma=2.0, a=2.0), CFG)
        g2 = math.gamma(1.5)
        assert pred.prefactor == pytest.approx(0.5 * g2 * g2, rel=1e-12, abs=0.0)
        assert (pred.u_power, pred.log_power) == (-2.0, 0)

    def test_critical_gamma_scaling(self):
        # gamma enters the critical prefactor as gamma^(-2/beta)
        base = i_gamma_asymptote(spec(a=1.0), CFG).prefactor
        scaled = i_gamma_asymptote(spec(gamma=2.0, a=1.0), CFG).prefactor
        assert scaled == pytest.approx(base / 2.0, rel=1e-9, abs=0.0)

    def test_psi_not_included(self):
        assert i_gamma_asymptote(spec(a=2.0), CFG).uses_psi is False


class TestInnerA:
    @pytest.mark.parametrize("Z", [1e-6, 1e-4, 1e-2, 1.0, 10.0])
    def test_matches_bessel_oracle(self, Z):
        assert inner_a(Z, cfg=CFG) == pytest.approx(inner_a_cosh_form(Z), rel=1e-12, abs=0.0)

    def test_log_law(self):
        for Z in (1e-2, 1e-4, 1e-6):
            assert abs(inner_a(Z, cfg=CFG) + math.log(Z)) <= 5.0

    def test_large_z_decay(self):
        # true value 2*K0(2*sqrt(10)) = 1.7533e-3; decays exponentially
        val = inner_a(10.0, cfg=CFG)
        assert val < 2e-3
        assert inner_a(100.0, cfg=CFG) < 1e-8

    def test_gamma_argument(self):
        assert inner_a(0.5, gamma=2.0, cfg=CFG) == pytest.approx(
            inner_a_cosh_form(0.5, gamma=2.0), rel=1e-12, abs=0.0
        )

    def test_far_tail_at_gamma_2(self):
        # A = 1.68e-18 is far below the 1e-12 absolute tolerance of a quadrature;
        # A must keep its relative accuracy there all the same
        assert inner_a(100.0, gamma=2.0, cfg=CFG) == pytest.approx(
            inner_a_cosh_form(100.0, gamma=2.0), rel=1e-12, abs=0.0
        )

    def test_rejects_bad_z(self):
        with pytest.raises(ValueError):
            inner_a(0.0, cfg=CFG)
        with pytest.raises(ValueError, match="gamma must be positive, got 0.0"):
            inner_a(1.0, gamma=0.0, cfg=CFG)
        # 2 K0(inf) reads 0.0: an infinite Z or gamma is refused, not answered
        with pytest.raises(ValueError, match="Z must be finite, got inf"):
            inner_a(math.inf, cfg=CFG)
        with pytest.raises(ValueError, match="gamma must be finite, got inf"):
            inner_a(1.0, gamma=math.inf, cfg=CFG)


class TestJLambdaRatio:
    def test_band_at_1e8(self):
        ratio = j_lambda_ratio(1e8, 1.0 / 3.0, 0.5, 1.0, CFG)
        assert 0.80 <= ratio <= 1.05

    def test_monotone_approach(self):
        r4 = j_lambda_ratio(1e4, 1.0 / 3.0, 0.5, 1.0, CFG)
        r10 = j_lambda_ratio(1e10, 1.0 / 3.0, 0.5, 1.0, CFG)
        assert abs(r10 - 1.0) < abs(r4 - 1.0)

    @pytest.mark.parametrize("lam", [1e4, 1e8])
    def test_second_order_oracle(self, lam):
        ratio = j_lambda_ratio(lam, 1.0 / 3.0, 0.5, 1.0, CFG)
        assert ratio == pytest.approx(j_ratio_second_order(lam, 1.0 / 3.0, 0.5, 1.0), abs=5e-3)

    def test_gamma_scaling_stays_in_band(self):
        ratio = j_lambda_ratio(1e8, 1.0 / 3.0, 0.5, 2.0, CFG)
        assert 0.80 <= ratio <= 1.05
        assert ratio == pytest.approx(j_ratio_second_order(1e8, 1.0 / 3.0, 0.5, 2.0), abs=5e-3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            j_lambda_ratio(0.5, 1.0 / 3.0, 0.5, 1.0, CFG)
        with pytest.raises(ValueError, match="p, q, gamma must be positive"):
            j_lambda_ratio(1e4, 0.0, 0.5, 1.0, CFG)
        with pytest.raises(ValueError, match="lam must be finite and exceed 1, got inf"):
            j_lambda_ratio(math.inf, 1.0 / 3.0, 0.5, 1.0, CFG)
        for p, q, gamma in [(math.nan, 0.5, 1.0), (0.5, math.inf, 1.0), (0.5, 0.5, math.inf)]:
            with pytest.raises(ValueError, match="p, q, gamma must be positive and finite"):
                j_lambda_ratio(1e4, p, q, gamma, CFG)

    def test_one_panel_call(self, monkeypatch):
        # A is closed form, so J is a single quadrature, not a nested one
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _integrate_panels(*args, **kwargs)

        monkeypatch.setattr(quad, "_integrate_panels", counting)
        j_lambda_ratio(1e4, 1.0 / 3.0, 0.5, 1.0, CFG)
        assert len(calls) == 1


class TestITrend:
    """i_gamma and its asymptote with trend slopes (beta = 2)."""

    def test_reduces_to_i_gamma_case(self):
        s = spec(a=2.0, u=100.0)
        tiny = spec(a=2.0, u=100.0, c1=1e-9, c2=1e-9)
        assert i_gamma(tiny, CFG) == pytest.approx(i_gamma(s, CFG), rel=1e-6, abs=0.0)

    def test_critical_with_trend_u100(self):
        s = spec(a=1.0, u=100.0, c1=1.0, c2=1.0)
        val = i_gamma(s, CFG) * 100.0 ** 2
        assert val == pytest.approx(trend_k(1.0, 1.0, CFG), rel=1e-3, abs=0.0)

    def test_classical_with_trend_u30(self):
        # the trend shrinks the integral tenfold: 9.0e-5 against 8.7e-4 untrended
        s = spec(a=2.0, u=30.0, c1=3.0, c2=3.0)
        val = i_gamma(s, CFG) * 30.0 ** 2
        assert val == pytest.approx(trend_l(3.0, CFG) ** 2, rel=2e-3, abs=0.0)

    def test_requires_beta_two(self):
        with pytest.raises(ValueError, match="beta = 2"):
            i_gamma(spec(beta=3.0, c1=1.0), CFG)

    def test_log_branch_prefactor_trend_free(self):
        a_lo = i_gamma_asymptote(spec(a=0.5), CFG)
        a_hi = i_gamma_asymptote(spec(a=0.5, c1=3.0, c2=7.0), CFG)
        assert a_lo.prefactor == a_hi.prefactor
        assert a_lo.log_power == 1
        assert a_lo.u_power == pytest.approx(-4.0)

    def test_classical_asymptote_is_product_of_sides(self):
        pred = i_gamma_asymptote(spec(a=2.0, c1=1.0, c2=2.0), CFG)
        assert pred.prefactor == pytest.approx(
            trend_l(1.0, CFG) * trend_l(2.0, CFG), rel=1e-10, abs=0.0
        )
        assert (pred.u_power, pred.log_power) == (-2.0, 0)

    def test_critical_asymptote(self):
        pred = i_gamma_asymptote(spec(a=1.0, c1=1.0, c2=1.0), CFG)
        assert pred.prefactor == pytest.approx(trend_k(1.0, 1.0, CFG), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a", [2.0, 1.0])
    def test_gamma_scales_the_slopes(self, a):
        # x -> x / (sqrt(gamma) u) turns slope c into c / sqrt(gamma) and
        # leaves a factor 1/gamma: L(1/sqrt 2)^2 / 2 above a = 1, K(.)/2 at it
        s = spec(gamma=2.0, a=a, u=300.0, c1=1.0, c2=1.0)
        c = 1.0 / math.sqrt(2.0)
        if a == 1.0:
            closed = trend_k(c, c, CFG) / 2.0
        else:
            closed = trend_l(c, CFG) ** 2 / 2.0
        assert i_gamma_asymptote(s, CFG).prefactor == pytest.approx(closed, rel=1e-10, abs=0.0)
        assert i_gamma(s, CFG) * 300.0 ** 2 == pytest.approx(closed, rel=2e-3, abs=0.0)
