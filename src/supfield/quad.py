"""Adaptive quadrature engine and the closed-form / asymptotic constants.

Everything here is deterministic numerics: the standard normal survival
function Psi, the one-dimensional constant G_beta = Gamma(1 + 1/beta), the
critical two-dimensional constant

    K_beta = int_0^inf int_0^inf exp(-x^beta - y^beta - (x y)^(beta/2)) dx dy,

the trend constants L(c) and K(c1, c2), the finite-domain integral

    i_gamma:  int_0^delta int_0^delta exp(-gamma u^2 (x^beta + y^beta + (xy)^a) - u(c1 x + c2 y))

(a nonzero trend slope c1, c2 requires beta = 2) together with its leading
asymptote as u -> infinity, whose prefactors are the product-regime
constants of `asymptotics.predict`.  K_beta and K(c1, c2) integrate its
integrand at gamma = u = 1, a = beta/2 over the quadrant: all three call
`_corner_integrand`, the scalar V(t).  Last comes the nested-integral family

    J(lam) = int int X^(q-1) Y^(q-1) exp(-g X - g Y - g lam (XY)^p) dX dY
    A(Z)   = int_0^inf X^(-1) exp(-g X - g Z/X) dX,

whose ratio to the Gamma(q/p)/(p^2 g^(q/p)) * lam^(-q/p) * log(lam) leading
term tends to 1 like O(1/log lam).

Numerical strategy: every integral is a sum of QUADPACK panels between
breakpoints (`_integrate_panels`) whose summed error estimate is checked
against the tolerances (`_check_converged`); 2-D integrals are iterated
1-D with the inner integral adaptive per outer node; domains [0, delta]
whose integrand lives on scales far below delta are pre-split dyadically
toward 0 so the adaptive routine never has to discover the scale separation
on its own; infinite domains are cut where the envelope exp(-x^beta) drops
below 1e-16 (`_cutoff`), and the exact tail of that envelope is added to the
error estimate.  On the finite square, whose integrand falls along both
axes, a panel loop stops once a bound on the panels left is below 2^-60 of
its sum, where they could not change a bit of it (`tail_bound`).  Only the
tolerances are settable; `MAX_SUBDIVISIONS` and the cut are fixed.

scipy is imported by the functions that call it, on first use: scipy.special
by the closed forms (G_beta, the log prefactor, log Psi where a prediction
overflows) and scipy.integrate, whose import costs about as much again, by
the quadratures.  So a run that calls neither (a Pickands or block Monte
Carlo run) never loads scipy.  `load_scipy` imports the modules a run will
call ahead of time, which the CLI does so that the import stays in its
set-up; were it to miss one, the import would only move into the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .model import _boundary_cmp

__all__ = [
    "QuadratureConfig",
    "IntegralSpec",
    "ConvergenceError",
    "AsymptoticPrediction",
    "normal_survival",
    "g_beta",
    "k_beta",
    "trend_l",
    "trend_k",
    "i_gamma",
    "i_gamma_asymptote",
    "side_constants",
    "inner_a",
    "j_lambda_ratio",
    "load_scipy",
]

_SQRT2 = math.sqrt(2.0)
_LOG_MAX = 709.782712893384  # log of the largest float
MAX_SUBDIVISIONS = 2000  # QUADPACK subdivision limit per panel
_TAIL_CUT_LOG = math.log(1.0 / 1e-16)  # infinite domains end where an envelope exp(-s) is 1e-16


def load_scipy(integrate: bool = True) -> None:
    """Import scipy.special, and scipy.integrate if `integrate`, ahead of their first use."""
    import scipy.special  # noqa: F401

    if integrate:
        import scipy.integrate  # noqa: F401


class ConvergenceError(RuntimeError):
    """Raised when the integrator cannot meet the requested tolerance.

    Carries the best available estimate and a bound on its error so callers
    can decide whether the partial answer is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the adaptive integrator.

    abs_tol / rel_tol : target absolute / relative error (finite, at least one > 0)
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):  # nan or inf would disarm _check_converged
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")


DEFAULT_CONFIG = QuadratureConfig()


def normal_survival(u: float) -> float:
    """Standard normal survival Psi(u) = P(N(0,1) > u) via erfc."""
    if not math.isfinite(u):
        raise ValueError(f"u must be finite, got {u}")
    return 0.5 * math.erfc(u / _SQRT2)


def _integrate_panels(
    f: Callable[[float], float],
    breakpoints: Sequence[float],
    cfg: QuadratureConfig,
    epsabs: float | None = None,
    epsrel: float | None = None,
    tail_bound: Callable[[float], float] | None = None,
) -> tuple[float, float]:
    """Sum of QUADPACK panels between consecutive breakpoints: (value, error estimate).

    `tail_bound(lo)` bounds the integral from lo to the last breakpoint, as
    (end - lo) f(lo) does for a positive non-increasing f.  Once it is at
    most 2^-60 of the sum so far, the loop adds it to the error and stops.
    Gauss-Kronrod weights are positive and sum to the panel width, so the
    skipped panels' estimates total less than half an ulp of the sum, with a
    64x margin that also covers QAGS's epsilon extrapolation (not a
    positive-weight sum): the sum keeps every bit.
    """
    from scipy import integrate

    if epsabs is None:
        epsabs = cfg.abs_tol / max(1, len(breakpoints) - 1)
    if epsrel is None:
        epsrel = cfg.rel_tol
    total = 0.0
    err = 0.0
    # With full_output=1 QUADPACK reports trouble in its return value, not as
    # an IntegrationWarning; convergence is judged from abserr by the caller.
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi <= lo:
            continue
        if tail_bound is not None and (bound := tail_bound(lo)) <= total * 2.0 ** -60:
            err += bound
            break
        res = integrate.quad(
            f, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=MAX_SUBDIVISIONS, full_output=1
        )
        total += float(res[0])
        err += float(res[1])
    return total, err


def _check_converged(value: float, err: float, cfg: QuadratureConfig, what: str) -> float:
    # QUADPACK error estimates overstate the true error by orders of
    # magnitude near machine precision; the 10x slack avoids spurious
    # failures without materially loosening the guarantee.
    if err > max(cfg.abs_tol, cfg.rel_tol * abs(value)) * 10.0:
        raise ConvergenceError(f"{what} did not converge to tolerance", value, err)
    return value


def _cutoff(power: float) -> float:
    """The R with exp(-R^power) = 1e-16."""
    return _TAIL_CUT_LOG ** (1.0 / power)


def _dyadic_down(hi: float, floor: float) -> list[float]:
    """Breakpoints 0, ..., hi/4, hi/2, hi, halving from hi down to `floor`, at most 80 times."""
    pts = [hi]
    while pts[-1] > floor and len(pts) <= 80:
        pts.append(0.5 * pts[-1])
    return [0.0] + pts[::-1]


# ---------------------------------------------------------------------------
# Closed-form and double-integral constants
# ---------------------------------------------------------------------------


def g_beta(beta: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """G_beta = integral of exp(-x^beta) over [0, inf) = Gamma(1 + 1/beta).

    Evaluated through the gamma function; the quadrature route is exercised
    against this value in the test suite.  `cfg` is accepted for interface
    uniformity.
    """
    if not (beta > 0):
        raise ValueError(f"beta must be positive, got {beta}")
    from scipy import special

    return float(special.gamma(1.0 + 1.0 / beta))


def _corner_integrand(
    g2: float, beta: float, a: float, u: float, c1: float, c2: float
) -> Callable[[float], Callable[[float], float]]:
    """f(x)(y) = exp(-g2 (x^beta + y^beta + (xy)^a) - u (c1 x + c2 y)), curried by row:
    f(x) computes the terms in x alone once and returns y -> f(x, y).  I(u) at
    g2 = gamma u^2, K_beta and K(c1, c2) at g2 = u = 1, a = beta/2.  A trend is
    stated for beta = 2 only, where the sides are squared as x * x."""
    if (c1, c2) == (0.0, 0.0):

        def row(x: float) -> Callable[[float], float]:
            xb = x ** beta
            return lambda y: math.exp(-g2 * (xb + y ** beta + (x * y) ** a))

        return row

    def trended_row(x: float) -> Callable[[float], float]:
        xx, cx = x * x, c1 * x
        return lambda y: math.exp(-g2 * (xx + y * y + (x * y) ** a) - u * (cx + c2 * y))

    return trended_row


def _exp_form_integral(beta: float, c1: float, c2: float, cfg: QuadratureConfig) -> float:
    """integral over [0,inf)^2 of exp(-(x^beta + y^beta + (xy)^(beta/2)) - c1 x - c2 y).

    Computed on the triangle {x <= y} with the integrand symmetrized,
    f(x, y) + f(y, x), which covers the full quadrant and makes the swap
    symmetry in (c1, c2) exact; f(x, y) is taken, bit for bit, as the
    integrand with the slopes swapped at (y, x), so both terms are rows at y.
    The outer variable is truncated by the y^beta envelope.
    """
    from scipy import special

    R = _cutoff(beta)
    # discarded region {y > R, x <= y}: integrand <= 2 e^{-y^beta} on a strip
    # of width y, so the remainder is bounded by the y-weighted tail
    # 2 int_R^inf y e^{-y^beta} dy = 2 Gamma(2/beta, R^beta) / beta
    s = 2.0 / beta
    tail = 2.0 * float(special.gamma(s)) * float(special.gammaincc(s, R ** beta)) / beta
    f = _corner_integrand(1.0, beta, beta / 2.0, 1.0, c1, c2)
    swapped = _corner_integrand(1.0, beta, beta / 2.0, 1.0, c2, c1)  # swapped(y)(x) = f(x)(y)
    inner_epsabs = cfg.abs_tol / (8.0 * R)

    def inner(y: float) -> float:
        if y <= 0.0:
            return 0.0
        pts = _dyadic_down(y, y * 2.0 ** -24)
        fy, sy = f(y), swapped(y)
        val, _ = _integrate_panels(
            lambda x: sy(x) + fy(x), pts, cfg, epsabs=inner_epsabs, epsrel=cfg.rel_tol
        )
        return val

    outer_pts = _dyadic_down(R, R * 2.0 ** -16)
    value, err = _integrate_panels(inner, outer_pts, cfg)
    return _check_converged(value, err + tail, cfg, "exp-form double integral")


def k_beta(beta: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Critical product constant K_beta.

    K_beta = int_0^inf int_0^inf exp(-x^beta - y^beta - x^(beta/2) y^(beta/2)),
    evaluated by iterated adaptive quadrature over the truncated quadrant,
    exploiting the x <-> y symmetry of the integrand.
    """
    if not (beta > 0):
        raise ValueError(f"beta must be positive, got {beta}")
    return _exp_form_integral(beta, 0.0, 0.0, cfg)


def trend_l(c: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """L(c) = int_0^inf exp(-x^2 - c x) dx, by quadrature.

    Satisfies the closed form (sqrt(pi)/2) e^(c^2/4) erfc(c/2), which the
    test suite uses as an independent oracle.
    """
    if c < 0:
        raise ValueError(f"c must be nonnegative, got {c}")
    R = _cutoff(2.0)
    value, err = _integrate_panels(lambda x: math.exp(-x * x - c * x), [0.0, R], cfg)
    # the integrand is at most e^(-x^2), whose tail past R is (sqrt(pi)/2) erfc(R)
    tail = 0.5 * math.sqrt(math.pi) * math.erfc(R)
    return _check_converged(value, err + tail, cfg, "integral")


def trend_k(c1: float, c2: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """K(c1, c2) = int int exp(-x^2 - y^2 - x y - c1 x - c2 y) over the quadrant.

    Symmetric in (c1, c2); coincides with k_beta(2) at c1 = c2 = 0.
    """
    if c1 < 0 or c2 < 0:
        raise ValueError(f"trend slopes must be nonnegative, got ({c1}, {c2})")
    return _exp_form_integral(2.0, c1, c2, cfg)


def side_constants(
    beta: float, c1: float, c2: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """The one-dimensional constants of the two sides: L(c1), L(c2) when a
    slope is nonzero (a trend is stated for beta = 2), else G_beta for both."""
    if (c1, c2) == (0.0, 0.0):
        gb = g_beta(beta)
        return gb, gb
    return trend_l(c1, cfg), trend_l(c2, cfg)


# ---------------------------------------------------------------------------
# Finite-domain integrals and their leading asymptotes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegralSpec:
    """Parameters of the finite-domain double integrals.

    gamma : exponential rate multiplier (> 0)
    beta  : side exponent (> 0)
    a     : product exponent (> 0); a vs beta/2 selects the asymptotic branch
    delta : upper limit of the square integration domain (> 0)
    u     : level (> 0)
    c1,c2 : trend slopes (>= 0); a nonzero slope requires beta = 2
    """

    gamma: float
    beta: float
    a: float
    delta: float
    u: float
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma", "beta", "a", "delta", "u"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(self.u):
            raise ValueError(f"level u must be finite, got {self.u}")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("trend slopes must be nonnegative")
        if (self.c1, self.c2) != (0.0, 0.0) and self.beta != 2.0:
            raise ValueError(f"a trend requires beta = 2 exactly, got beta={self.beta}")


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading-order form C * u^theta * (log u)^kappa, optionally times Psi(u).

    A u -> infinity statement, positive only for u > 1 (log u < 0 below 1):
    evaluate(u) refuses u <= 1, and a non-finite u as `normal_survival`
    does.  Beyond the float range it is inf, and below it 0.0, never an
    OverflowError.
    """

    prefactor: float
    u_power: float
    log_power: int
    uses_psi: bool = True

    def __post_init__(self) -> None:
        if not (self.prefactor > 0 and math.isfinite(self.prefactor)):
            raise ValueError(f"prefactor must be positive and finite, got {self.prefactor}")
        if self.log_power not in (0, 1):
            raise ValueError(f"log_power must be 0 or 1, got {self.log_power}")

    def evaluate(self, u: float) -> float:
        if not math.isfinite(u):
            raise ValueError(f"u must be finite, got {u}")
        if u <= 1:
            raise ValueError(f"u must exceed 1, where the leading form is positive; got {u}")
        try:
            val = self.prefactor * float(u) ** float(self.u_power)
        except OverflowError:
            val = math.inf
        val *= math.log(u) if self.log_power else 1.0
        if not math.isinf(val):
            return val * normal_survival(u) if self.uses_psi else val
        from scipy import special  # a factor overflowed: the product in log space

        log_val = math.log(self.prefactor) + self.u_power * math.log(u)
        log_val += math.log(math.log(u)) if self.log_power else 0.0
        log_val += float(special.log_ndtr(-u)) if self.uses_psi else 0.0
        return math.exp(log_val) if log_val <= _LOG_MAX else math.inf


def _square_integral(
    spec: IntegralSpec, f: Callable[[float], Callable[[float], float]], cfg: QuadratureConfig
) -> float:
    """integral over [0, delta]^2 of the corner integrand f(x)(y), dyadically pre-split.

    The integrand concentrates on scales (gamma u^2)^(-1/beta) and smaller;
    both axes are split dyadically from delta down past the smallest relevant
    scale so panel adaptivity only ever sees a single-scale problem.

    f decreases in each variable (gamma, u > 0 and c1, c2 >= 0), so the
    panels from y on hold at most (delta - y) f(x, y) and those from x on at
    most (delta - x) delta f(x, 0): the tail bounds that let
    `_integrate_panels` skip panels that cannot change a bit of the sum,
    among them every panel where the integrand underflows.
    """
    g2 = spec.gamma * spec.u * spec.u
    delta = spec.delta
    floor = min(g2 ** (-1.0 / spec.beta), g2 ** (-1.0 / (2.0 * spec.a)), delta)
    pts = _dyadic_down(delta, floor / 64.0)

    def panels(g: Callable[[float], float], bound: Callable[[float], float]) -> tuple[float, float]:
        return _integrate_panels(g, pts, cfg, epsabs=0.0, epsrel=cfg.rel_tol, tail_bound=bound)

    def inner(x: float) -> float:
        fx = f(x)
        return panels(fx, lambda y: (delta - y) * fx(y))[0]

    value, err = panels(inner, lambda x: (delta - x) * delta * f(x)(0.0))
    return _check_converged(value, err, cfg, "finite-domain double integral")


def i_gamma(spec: IntegralSpec, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Direct quadrature of
    int_0^delta int_0^delta exp(-gamma u^2 (x^b + y^b + (xy)^a) - u(c1 x + c2 y))."""
    g2 = spec.gamma * spec.u * spec.u
    f = _corner_integrand(g2, spec.beta, spec.a, spec.u, spec.c1, spec.c2)
    return _square_integral(spec, f, cfg)


def i_gamma_asymptote(
    spec: IntegralSpec, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> AsymptoticPrediction:
    """Leading u -> infinity form of i_gamma as (prefactor, u-power, log-power).

    Branches on a vs beta/2: below, the integral behaves like
    2(beta - 2a) Gamma(1/a) / (a^2 beta gamma^(1/a)) * u^(-2/a) * log u,
    whatever the trend, since a fixed trend moves only bounded terms.  At
    and above the boundary it behaves like gamma^(-2/beta) C u^(-4/beta):
    substituting x -> x / (gamma u^2)^(1/beta) scales the slopes to
    c' = c / sqrt(gamma), and C is the critical constant K(c1', c2') (K_beta
    without a trend) at a = beta/2, or L(c1') L(c2') (G_beta^2) above it.
    """
    from scipy import special

    a, beta, gamma = spec.a, spec.beta, spec.gamma
    br = _boundary_cmp(a, beta / 2.0)
    if br < 0:
        pref = (
            2.0
            * (beta - 2.0 * a)
            * float(special.gamma(1.0 / a))
            / (a * a * beta * gamma ** (1.0 / a))
        )
        return AsymptoticPrediction(pref, -2.0 / a, 1, uses_psi=False)
    c1, c2 = spec.c1 / math.sqrt(gamma), spec.c2 / math.sqrt(gamma)
    if br == 0:
        const = _exp_form_integral(beta, c1, c2, cfg)
    else:
        s1, s2 = side_constants(beta, c1, c2, cfg)
        const = s1 * s2
    return AsymptoticPrediction(gamma ** (-2.0 / beta) * const, -4.0 / beta, 0, uses_psi=False)


# ---------------------------------------------------------------------------
# Nested inner/outer integrals behind the logarithmic branch
# ---------------------------------------------------------------------------


def inner_a(Z: float, cfg: QuadratureConfig = DEFAULT_CONFIG, gamma: float = 1.0) -> float:
    """A(Z) = int_0^inf X^(-1) exp(-g X - g Z/X) dX, with g = gamma.

    Behaves like -log Z + O(1) as Z -> 0 and decays to 0 exponentially as
    Z -> infinity.  Computed after the substitution X = e^t, which turns the
    integrand into a smooth plateau with double-exponential tails.  A fixed
    trend would move only bounded terms of the log branch (see
    `i_gamma_asymptote`), so A carries none.
    """
    if not (Z > 0):
        raise ValueError(f"Z must be positive, got {Z}")
    if not (gamma > 0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    b_coef = gamma * Z
    t_hi = math.log(_TAIL_CUT_LOG / gamma) + 3.0
    t_lo = -math.log(_TAIL_CUT_LOG / b_coef) - 3.0

    def f(t: float) -> float:
        return math.exp(-gamma * math.exp(t) - b_coef * math.exp(-t))

    mid = sorted({t_lo, min(0.0, 0.5 * (t_lo + t_hi)), 0.0, t_hi})
    value, err = _integrate_panels(f, mid, cfg, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol)
    return _check_converged(value, err, cfg, "inner plateau integral")


def j_lambda_ratio(
    lam: float,
    p: float,
    q: float,
    gamma: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """J(lam) by nested quadrature, divided by its leading asymptote.

    J(lam) = int_0^inf Z^(q-1) exp(-gamma lam Z^p) A(Z) dZ with A the inner
    integral above; the leading term is
    Gamma(q/p) / (p^2 gamma^(q/p)) * lam^(-q/p) * log(lam).  The ratio tends
    to 1 at rate O(1/log lam).

    Numerically, Z is rescaled by lam^(-1/p) and the endpoint singularity
    Z^(q-1) is removed by a further power substitution, so the outer
    integrand is bounded and single-scale.
    """
    if not (lam > 1):
        raise ValueError(f"lam must exceed 1, got {lam}")
    if p <= 0 or q <= 0 or gamma <= 0:
        raise ValueError("p, q, gamma must be positive")
    from scipy import special

    scale = lam ** (-1.0 / p)

    # J = lam^{-q/p} * int W^{q-1} e^{-gamma W^p} A(scale * W) dW; then V = W^q.
    def f(V: float) -> float:
        if V <= 0.0:
            return 0.0
        W = V ** (1.0 / q)
        return math.exp(-gamma * W ** p) * inner_a(scale * W, cfg, gamma) / q

    w_max = (_TAIL_CUT_LOG / gamma) ** (1.0 / p)
    v_max = w_max ** q
    pts = _dyadic_down(v_max, min(1.0, v_max) * 2.0 ** -20)
    value, err = _integrate_panels(f, pts, cfg, epsabs=0.0, epsrel=max(cfg.rel_tol, 1e-9))
    _check_converged(value, err, cfg, "outer scale integral")
    j_val = lam ** (-q / p) * value
    leading = (
        float(special.gamma(q / p))
        / (p * p * gamma ** (q / p))
        * lam ** (-q / p)
        * math.log(lam)
    )
    return j_val / leading
