"""Adaptive quadrature engine and the closed-form / asymptotic constants.

Everything here is deterministic numerics: the standard normal survival
function Psi, the one-dimensional constant G_beta = Gamma(1 + 1/beta), the
critical two-dimensional constant

    K_beta = int_0^inf int_0^inf exp(-x^beta - y^beta - (x y)^(beta/2)) dx dy,

the trend constants L(c) and K(c1, c2), the finite-domain integral

    i_gamma:  int_0^delta int_0^delta exp(-gamma u^2 (x^beta + y^beta + (xy)^a) - u(c1 x + c2 y))

(a nonzero trend slope c1, c2 requires beta = 2) together with its leading
asymptote as u -> infinity, whose prefactors are the product-regime
constants of `asymptotics.predict`, and the nested-integral family

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
below `tail_cut_tol` (`_cutoff`), and the exact tail of that envelope is
added to the error estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from scipy import integrate as _sint
from scipy import special as _spec

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
]

_SQRT2 = math.sqrt(2.0)
# exp of any exponent below this is exactly 0.0 in double precision
_EXP_UNDERFLOW = -746.0


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

    abs_tol / rel_tol : target absolute / relative error (at least one > 0)
    max_subdivisions  : QUADPACK subdivision limit per panel
    tail_cut_tol      : envelope level in (0, 1) at which infinite domains are
                        truncated
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    tail_cut_tol: float = 1e-16

    def __post_init__(self) -> None:
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")
        if self.max_subdivisions <= 0:
            raise ValueError("max_subdivisions must be positive")
        if not (0 < self.tail_cut_tol < 1):
            raise ValueError(f"tail_cut_tol must be in (0, 1), got {self.tail_cut_tol}")


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
) -> tuple[float, float]:
    """Sum of QUADPACK panels between consecutive breakpoints: (value, error estimate)."""
    if epsabs is None:
        epsabs = cfg.abs_tol / max(1, len(breakpoints) - 1)
    if epsrel is None:
        epsrel = cfg.rel_tol
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        # Convergence is judged from abserr by the caller, not from warnings.
        warnings.simplefilter("ignore", _sint.IntegrationWarning)
        for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
            if hi <= lo:
                continue
            res = _sint.quad(
                f, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=cfg.max_subdivisions, full_output=1
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


def _cutoff(power: float, cfg: QuadratureConfig) -> float:
    """Smallest R >= 1 with exp(-R^power) <= cfg.tail_cut_tol."""
    arg = math.log(1.0 / cfg.tail_cut_tol)
    return max(max(arg, 0.0) ** (1.0 / power), 1.0)


def _dyadic_down(hi: float, floor: float, max_levels: int = 80) -> list[float]:
    """Breakpoints hi, hi/2, hi/4, ... down to `floor`, plus 0."""
    pts = [hi]
    x = hi
    levels = 0
    while x > floor and levels < max_levels:
        x *= 0.5
        pts.append(x)
        levels += 1
    pts.append(0.0)
    return sorted(pts)


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
    return float(_spec.gamma(1.0 + 1.0 / beta))


def _exp_form_integral(
    beta: float,
    prod_exp: float,
    c1: float,
    c2: float,
    cfg: QuadratureConfig,
) -> float:
    """integral over [0,inf)^2 of exp(-(x^beta + y^beta + (xy)^prod_exp) - c1 x - c2 y).

    Computed on the triangle {x <= y} with the integrand symmetrized,
    f(x, y) + f(y, x), which covers the full quadrant and makes the swap
    symmetry in (c1, c2) exact.  The outer variable is truncated by the
    y^beta envelope.
    """
    R = _cutoff(beta, cfg)
    # discarded region {y > R, x <= y}: integrand <= 2 e^{-y^beta} on a strip
    # of width y, so the remainder is bounded by the y-weighted tail
    # 2 int_R^inf y e^{-y^beta} dy = 2 Gamma(2/beta, R^beta) / beta
    s = 2.0 / beta
    tail = 2.0 * float(_spec.gamma(s)) * float(_spec.gammaincc(s, R ** beta)) / beta

    def f(x: float, y: float) -> float:
        return math.exp(-(x ** beta + y ** beta + (x * y) ** prod_exp) - c1 * x - c2 * y)

    inner_epsabs = cfg.abs_tol / (8.0 * R)

    def inner(y: float) -> float:
        if y <= 0.0:
            return 0.0
        pts = _dyadic_down(y, y * 2.0 ** -24)
        val, _ = _integrate_panels(
            lambda x: f(x, y) + f(y, x), pts, cfg, epsabs=inner_epsabs, epsrel=cfg.rel_tol
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
    return _exp_form_integral(beta, beta / 2.0, 0.0, 0.0, cfg)


def trend_l(c: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """L(c) = int_0^inf exp(-x^2 - c x) dx, by quadrature.

    Satisfies the closed form (sqrt(pi)/2) e^(c^2/4) erfc(c/2), which the
    test suite uses as an independent oracle.
    """
    if c < 0:
        raise ValueError(f"c must be nonnegative, got {c}")
    R = _cutoff(2.0, cfg)
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
    return _exp_form_integral(2.0, 1.0, c1, c2, cfg)


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
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("trend slopes must be nonnegative")
        if (self.c1, self.c2) != (0.0, 0.0) and self.beta != 2.0:
            raise ValueError(f"a trend requires beta = 2 exactly, got beta={self.beta}")


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading-order form C * u^theta * (log u)^kappa, optionally times Psi(u).

    evaluate(u) is finite and positive for u > 1.
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
        val = self.prefactor * u ** self.u_power
        if self.log_power:
            val *= math.log(u)
        if self.uses_psi:
            val *= normal_survival(u)
        return val


def _square_integral(
    spec: IntegralSpec,
    exponent: Callable[[float, float], float],
    cfg: QuadratureConfig,
) -> float:
    """integral over [0, delta]^2 of exp(exponent(x, y)), dyadically pre-split.

    The integrand concentrates on scales (gamma u^2)^(-1/beta) and smaller;
    both axes are split dyadically from delta down past the smallest relevant
    scale so panel adaptivity only ever sees a single-scale problem.

    The exponent decreases in each variable (gamma, u > 0 and c1, c2 >= 0),
    so once it is below `_EXP_UNDERFLOW` at a panel's low end, that panel
    and every panel above it integrate to exactly 0.0 and are skipped: the
    inner y panels at each x, and the outer x panels by exponent(x, 0).
    """
    g2 = spec.gamma * spec.u * spec.u
    floor = min(g2 ** (-1.0 / spec.beta), g2 ** (-1.0 / (2.0 * spec.a)), spec.delta)
    pts = _dyadic_down(spec.delta, floor / 64.0)

    def live(exponent_at: Callable[[float], float]) -> list[float]:
        for i, p in enumerate(pts):
            if exponent_at(p) < _EXP_UNDERFLOW:
                return pts[: i + 1]
        return pts

    def inner(x: float) -> float:
        val, _ = _integrate_panels(
            lambda y: math.exp(exponent(x, y)),
            live(lambda y: exponent(x, y)),
            cfg,
            epsabs=0.0,
            epsrel=cfg.rel_tol,
        )
        return val

    outer_pts = live(lambda x: exponent(x, 0.0))
    value, err = _integrate_panels(inner, outer_pts, cfg, epsabs=0.0, epsrel=cfg.rel_tol)
    return _check_converged(value, err, cfg, "finite-domain double integral")


def i_gamma(spec: IntegralSpec, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Direct quadrature of
    int_0^delta int_0^delta exp(-gamma u^2 (x^b + y^b + (xy)^a) - u(c1 x + c2 y))."""
    g2 = spec.gamma * spec.u * spec.u
    b, a = spec.beta, spec.a
    if (spec.c1, spec.c2) == (0.0, 0.0):
        return _square_integral(spec, lambda x, y: -g2 * (x ** b + y ** b + (x * y) ** a), cfg)
    u, c1, c2 = spec.u, spec.c1, spec.c2
    return _square_integral(
        spec,
        lambda x, y: -g2 * (x * x + y * y + (x * y) ** a) - u * (c1 * x + c2 * y),
        cfg,
    )


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
    a, beta, gamma = spec.a, spec.beta, spec.gamma
    br = _boundary_cmp(a, beta / 2.0)
    if br < 0:
        pref = (
            2.0
            * (beta - 2.0 * a)
            * float(_spec.gamma(1.0 / a))
            / (a * a * beta * gamma ** (1.0 / a))
        )
        return AsymptoticPrediction(pref, -2.0 / a, 1, uses_psi=False)
    c1, c2 = spec.c1 / math.sqrt(gamma), spec.c2 / math.sqrt(gamma)
    if br == 0:
        const = _exp_form_integral(beta, beta / 2.0, c1, c2, cfg)
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
    tau = math.log(1.0 / cfg.tail_cut_tol)
    t_hi = math.log(tau / gamma) + 3.0
    t_lo = -math.log(tau / b_coef) - 3.0

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
    scale = lam ** (-1.0 / p)

    # J = lam^{-q/p} * int W^{q-1} e^{-gamma W^p} A(scale * W) dW; then V = W^q.
    def f(V: float) -> float:
        if V <= 0.0:
            return 0.0
        W = V ** (1.0 / q)
        return math.exp(-gamma * W ** p) * inner_a(scale * W, cfg, gamma) / q

    w_max = (math.log(1.0 / cfg.tail_cut_tol) / gamma) ** (1.0 / p)
    v_max = w_max ** q
    pts = _dyadic_down(v_max, min(1.0, v_max) * 2.0 ** -20)
    value, err = _integrate_panels(f, pts, cfg, epsabs=0.0, epsrel=max(cfg.rel_tol, 1e-9))
    _check_converged(value, err, cfg, "outer scale integral")
    j_val = lam ** (-q / p) * value
    leading = (
        float(_spec.gamma(q / p))
        / (p * p * gamma ** (q / p))
        * lam ** (-q / p)
        * math.log(lam)
    )
    return j_val / leading
