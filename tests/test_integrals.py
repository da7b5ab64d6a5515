import math

import pytest

from supfield import quad
from supfield.quad import (
    ConvergenceError,
    IntegralSpec,
    QuadratureConfig,
    _dyadic_down,
    _gk21,
    i_gamma,
    i_gamma_asymptote,
    inner_a,
    j_lambda_ratio,
    trend_k,
    trend_l,
)

from oracles import (
    i_gamma_log_trapezoid,
    i_gamma_nested_quadpack,
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

    def test_level_whose_rate_overflows_refused(self):
        # g2 = u^2 = 1e400 is inf, while I is about 7.8e-101 at beta = 8
        with pytest.raises(ValueError, match="gamma u\\^2 = exp\\(921.034\\) overflows a float"):
            i_gamma(spec(beta=8.0, a=4.0, u=1e200), CFG)

    @pytest.mark.parametrize("a", [2.0, 1.0, 0.8])
    def test_level_whose_value_underflows_is_0(self, a):
        # I <= (G_2 / u)^2 = (pi/4) 1e-400 rounds to 0.0, as I does
        assert i_gamma(spec(a=a, u=1e200), CFG) == 0.0

    @pytest.mark.parametrize("a", [2.0, 1.0, 0.8])
    def test_zero_sum_raises(self, a):
        # at u = 1e30 the scale 1e-30 lies below the split's 2^-80, so every node sees
        # f = 0; the asymptote is 7.85e-61, 6.05e-61 and 3.9e-74
        sp = spec(a=a, u=1e30)
        assert i_gamma_asymptote(sp, CFG).evaluate(sp.u) > 1e-75
        with pytest.raises(ConvergenceError, match="its scale lies below the split") as info:
            i_gamma(sp, CFG)
        assert info.value.estimate == 0.0

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
    """i_gamma summed over every outer panel, none skipped: the same inner rule and
    outer quadrature, taking the panels in the same waves, with a tail bound that
    never ends the domain."""

    def every_panel(f, breakpoints, epsabs, epsrel, tail_bound=None):
        return _gk21(f, breakpoints, epsabs, epsrel, lambda lo: math.inf)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_gk21", every_panel)
        return i_gamma(sp, CFG)


# the specs whose skipped panels are checked, and the nested-QUADPACK reference
SKIP_SPECS = {
    "classical": spec(a=2.0, u=1e3),
    "critical": spec(a=1.0, u=1e3),
    "log": spec(a=0.8, u=1e3),
    "critical-trend": spec(a=1.0, u=1e3, c2=1.5),
    "classical-1e4": spec(a=2.0, u=1e4),
    "classical-1e5": spec(a=2.0, u=1e5),
    "critical-1e4": spec(a=1.0, u=1e4),
    "critical-1e5": spec(a=1.0, u=1e5),
    "log-1e4": spec(a=0.8, u=1e4),
    "log-1e5": spec(a=0.8, u=1e5),
    "gamma2-trend": spec(gamma=2.0, a=1.0, u=1e3, c1=1.0, c2=1.0),
    "beta1-delta0.5": spec(beta=1.0, a=0.4, delta=0.5, u=1e3),
    "beta3-delta0.5": spec(beta=3.0, a=2.0, delta=0.5, u=1e3),
    "no-underflow": spec(a=2.0, u=30.0),
}
# the branches and levels of configs/integrals.yaml, the quick desk run's integrals
DESK_SPECS = {
    f"desk-a{a:g}-u{u:g}": spec(a=a, u=u) for a in (2.0, 1.0, 0.8) for u in (10.0, 30.0, 100.0)
}


class TestIGammaSkippedPanels:
    # panels whose tail bound is below 2^-60 of the running sum are skipped,
    # which must leave every bit of the value unchanged
    @pytest.mark.parametrize("sp", SKIP_SPECS.values(), ids=SKIP_SPECS.keys())
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
                xs.append(x.max())
                return f(x)

            result = _gk21(g, breakpoints, *args)
            reach.append(max(xs))
            return result

        monkeypatch.setattr(quad, "_gk21", spy)
        value = i_gamma(sp, CFG)
        assert len(reach) == 1 and reach[0] < 0.5 * sp.delta  # the outer integral alone
        assert value == i_gamma_all_panels(sp)


class TestIGammaInnerRule:
    # the fixed inner rule against nested adaptive QUADPACK, an independent oracle,
    # and a coarse split that its error estimate must catch
    @pytest.mark.parametrize(
        "sp", [*SKIP_SPECS.values(), *DESK_SPECS.values()], ids=[*SKIP_SPECS, *DESK_SPECS]
    )
    def test_matches_nested_quadpack(self, sp):
        assert i_gamma(sp, CFG) == pytest.approx(i_gamma_nested_quadpack(sp), rel=1e-13, abs=0.0)

    def test_log_trapezoid_oracle_has_converged(self):
        sp = spec(beta=1.5, a=0.2, u=1e4)
        assert i_gamma_log_trapezoid(sp, 0.08, -110.0) == pytest.approx(
            i_gamma_log_trapezoid(sp, 0.04, -110.0), rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize(
        "sp,s_lo",
        [(spec(beta=1.5, a=0.2, u=1e4), -110.0), (spec(beta=1.5, a=0.1, u=1e4), -195.0)],
        ids=["a0.2", "a0.1-split-capped"],
    )
    def test_deep_log_branch_is_right_or_raises(self, sp, s_lo):
        # the product scale g2^(-1/a) is 1e-40 at a = 0.2 and 1e-80 at a = 0.1, where
        # the dyadic split stops at its cap of 80 halvings, at 2^-80; nested adaptive
        # QUADPACK (`i_gamma_nested_quadpack`) gives 6.4952e-37 at a = 0.2, 9 % low
        oracle = i_gamma_log_trapezoid(sp, 0.04, s_lo)
        try:
            value = i_gamma(sp, CFG)
        except ConvergenceError:
            return
        assert value == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_split_cap_is_reached_at_a_0_1(self):
        sp = spec(beta=1.5, a=0.1, u=1e4)
        g2 = sp.gamma * sp.u * sp.u
        floor = min(g2 ** (-1.0 / sp.beta), g2 ** (-1.0 / (2.0 * sp.a)), sp.delta)
        assert len(_dyadic_down(sp.delta, floor / 64.0)) == 82  # 0, then 2^-80 .. 1

    def test_log_branch_matches_oracle(self):
        # nested adaptive QUADPACK (`i_gamma_nested_quadpack`) gives 7.7597e-25, 5.8e-4 low
        sp = spec(a=0.3, u=1e4)
        oracle = i_gamma_log_trapezoid(sp, 0.04, -90.0)
        assert i_gamma(sp, CFG) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_coarse_inner_split_raises(self, monkeypatch):
        # stopped at the outer split's floor / 64, the inner rule misses the
        # (xy)^a cusp at y = 0 by 2e-9 relative, and its error estimate says so
        sp = spec(a=0.8, u=1e5)
        right = i_gamma(sp, CFG)
        monkeypatch.setattr(quad, "_INNER_HALVINGS", 0)
        with pytest.raises(ConvergenceError) as info:
            i_gamma(sp, CFG)
        assert abs(info.value.estimate / right - 1.0) > 1e-9


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

    @pytest.mark.parametrize(
        "beta,c1,c2,name", [(1.5, 0.0, 0.0, "k_beta"), (2.0, 0.7, 1.3, "trend_k")]
    )
    def test_critical_constant_goes_through_its_public_name(
        self, monkeypatch, beta, c1, c2, name
    ):
        # K_beta and K(c1, c2) are timed and counted under these names
        calls = []
        original = getattr(quad, name)
        monkeypatch.setattr(quad, name, lambda *args: calls.append(args) or original(*args))
        pred = i_gamma_asymptote(spec(gamma=4.0, beta=beta, a=beta / 2.0, c1=c1, c2=c2), CFG)
        assert len(calls) == 1
        const = original(beta, CFG) if name == "k_beta" else original(c1 / 2.0, c2 / 2.0, CFG)
        assert pred.prefactor == 4.0 ** (-2.0 / beta) * const


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
            return _gk21(*args, **kwargs)

        monkeypatch.setattr(quad, "_gk21", counting)
        j_lambda_ratio(1e4, 1.0 / 3.0, 0.5, 1.0, CFG)
        assert len(calls) == 1

    def test_a_is_given_no_tolerances(self, monkeypatch):
        # J takes A's closed form on its whole array of nodes, not through the scalar
        # `inner_a`, and no tolerance reaches it: only J's own rel_tol moves J
        calls = []
        monkeypatch.setattr(quad, "inner_a", lambda *args, **kwargs: calls.append(args))
        j = j_lambda_ratio(1e4, 1.0 / 3.0, 0.5, 2.0, CFG)
        assert calls == []
        assert j_lambda_ratio(1e4, 1.0 / 3.0, 0.5, 2.0, QuadratureConfig(abs_tol=1e-3)) == j


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
