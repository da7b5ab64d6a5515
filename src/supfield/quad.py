"""Adaptive quadrature engine and the closed-form / asymptotic constants.

Everything here is deterministic numerics: the standard normal survival
function Psi, the one-dimensional constant G_beta = Gamma(1 + 1/beta), the
critical two-dimensional constant

    K_beta = int_0^inf int_0^inf exp(-x^beta - y^beta - (x y)^(beta/2)) dx dy,

the trend constants L(c) and K(c1, c2), the finite-domain integrals

    i_gamma:  int_0^delta int_0^delta exp(-gamma u^2 (x^beta + y^beta + (xy)^a))
    i_trend:  int_0^delta int_0^delta exp(-u^2 (x^2 + y^2 + (xy)^a) - u(c1 x + c2 y))

together with their closed-form leading asymptotes as u -> infinity, and the
nested-integral family

    J(lam) = int int X^(q-1) Y^(q-1) exp(-g X - g Y - g lam (XY)^p) dX dY
    A(Z)   = int_0^inf X^(-1) exp(-g X - g Z/X - c1 X - c2 Z/X) dX,

whose ratio to the Gamma(q/p)/(p^2 g^(q/p)) * lam^(-q/p) * log(lam) leading
term tends to 1 like O(1/log lam).

Numerical strategy: 1-D integration is QUADPACK behind a tolerance-checking
wrapper; 2-D integrals are iterated 1-D with the inner integral adaptive per
outer node; domains [0, delta] whose integrand lives on scales far below
delta are pre-split dyadically toward 0 so the adaptive routine never has to
discover the scale separation on its own; infinite domains are truncated
where a separable exponential envelope drops below `tail_cut_tol`, with the
truncation remainder bounded by the exact envelope tail integral.
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
    "DecayEnvelope",
    "ConvergenceError",
    "AsymptoticPrediction",
    "normal_survival",
    "integrate_1d",
    "g_beta",
    "k_beta",
    "trend_l",
    "trend_k",
    "i_gamma",
    "i_gamma_asymptote",
    "i_trend",
    "i_trend_asymptote",
    "trend_side_asymptote",
    "inner_a",
    "j_lambda_ratio",
]

_SQRT2 = math.sqrt(2.0)


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
    tail_cut_tol      : envelope level at which infinite domains are truncated
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
        if not (self.tail_cut_tol > 0):
            raise ValueError("tail_cut_tol must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class DecayEnvelope:
    """Separable decay bound |f(x)| <= coef * exp(-rate * x^power) for large x."""

    rate: float
    power: float
    coef: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.power <= 0 or self.coef <= 0:
            raise ValueError("envelope rate, power and coef must be positive")

    def cutoff(self, level: float) -> float:
        """Smallest R with coef * exp(-rate * R^power) <= level."""
        arg = math.log(self.coef / level)
        if arg <= 0:
            return 0.0
        return (arg / self.rate) ** (1.0 / self.power)

    def tail_integral(self, R: float) -> float:
        """Exact integral of the envelope over [R, inf)."""
        s = 1.0 / self.power
        z = self.rate * R ** self.power
        return (
            self.coef
            * _spec.gamma(s)
            * float(_spec.gammaincc(s, z))
            / (self.power * self.rate ** s)
        )


def normal_survival(u: float) -> float:
    """Standard normal survival Psi(u) = P(N(0,1) > u) via erfc."""
    if not math.isfinite(u):
        raise ValueError(f"u must be finite, got {u}")
    return 0.5 * math.erfc(u / _SQRT2)


def _quad_panel(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: QuadratureConfig,
    epsabs: float,
    epsrel: float,
) -> tuple[float, float]:
    """One QUADPACK call; returns (value, error estimate)."""
    with warnings.catch_warnings():
        # Convergence is judged from abserr by the caller, not from warnings.
        warnings.simplefilter("ignore", _sint.IntegrationWarning)
        res = _sint.quad(
            f, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=cfg.max_subdivisions, full_output=1
        )
    return float(res[0]), float(res[1])


def _integrate_panels(
    f: Callable[[float], float],
    breakpoints: Sequence[float],
    cfg: QuadratureConfig,
    epsabs: float | None = None,
    epsrel: float | None = None,
) -> tuple[float, float]:
    """Sum QUADPACK panels between consecutive breakpoints."""
    if epsabs is None:
        epsabs = cfg.abs_tol / max(1, len(breakpoints) - 1)
    if epsrel is None:
        epsrel = cfg.rel_tol
    total = 0.0
    err = 0.0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi <= lo:
            continue
        v, e = _quad_panel(f, lo, hi, cfg, epsabs, epsrel)
        total += v
        err += e
    return total, err


def _check_converged(value: float, err: float, cfg: QuadratureConfig, what: str) -> float:
    # QUADPACK error estimates overstate the true error by orders of
    # magnitude near machine precision; the 10x slack avoids spurious
    # failures without materially loosening the guarantee.
    if err > max(cfg.abs_tol, cfg.rel_tol * abs(value)) * 10.0:
        raise ConvergenceError(f"{what} did not converge to tolerance", value, err)
    return value


def integrate_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    envelope: DecayEnvelope | None = None,
    breakpoints: Sequence[float] | None = None,
) -> float:
    """Adaptive integral of f over [lo, hi], hi possibly +inf.

    For an infinite upper limit with an `envelope`, the domain is cut where
    the envelope falls below cfg.tail_cut_tol and the discarded remainder is
    bounded by the envelope's exact tail integral (added to the error
    budget).  Without an envelope, QUADPACK's infinite-interval transform is
    used directly; f must eventually decay monotonically for that to be
    reliable.  Optional `breakpoints` pre-split a finite domain.

    Raises ConvergenceError (carrying the best estimate and an error bound)
    if the tolerance cannot be met within cfg.max_subdivisions.
    """
    tail_bound = 0.0
    if math.isinf(hi):
        if envelope is not None:
            hi = max(envelope.cutoff(cfg.tail_cut_tol), lo + 1.0)
            tail_bound = envelope.tail_integral(hi)
        else:
            value, err = _quad_panel(f, lo, hi, cfg, cfg.abs_tol, cfg.rel_tol)
            return _check_converged(value, err, cfg, "infinite-domain integral")
    if breakpoints is not None:
        pts = sorted({float(b) for b in breakpoints if lo < b < hi} | {float(lo), float(hi)})
    else:
        pts = [float(lo), float(hi)]
    value, err = _integrate_panels(f, pts, cfg)
    return _check_converged(value, err + tail_bound, cfg, "integral")


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
    gamma: float,
    cfg: QuadratureConfig,
) -> float:
    """integral over [0,inf)^2 of exp(-gamma(x^beta + y^beta + (xy)^prod_exp) - c1 x - c2 y).

    Computed on the triangle {x <= y} with the integrand symmetrized,
    f(x, y) + f(y, x), which covers the full quadrant and makes the swap
    symmetry in (c1, c2) exact.  The outer variable is truncated by the
    gamma * y^beta envelope.
    """
    env = DecayEnvelope(rate=gamma, power=beta)
    R = max(env.cutoff(cfg.tail_cut_tol), 1.0)
    # discarded region {y > R, x <= y}: integrand <= 2 e^{-gamma y^beta} on a
    # strip of width y, so the remainder is bounded by the y-weighted tail
    # 2 int_R^inf y e^{-gamma y^beta} dy = 2 Gamma(2/beta, gamma R^beta) / (beta gamma^{2/beta})
    s = 2.0 / beta
    tail = (
        2.0
        * float(_spec.gamma(s))
        * float(_spec.gammaincc(s, gamma * R ** beta))
        / (beta * gamma ** s)
    )

    def f(x: float, y: float) -> float:
        return math.exp(
            -gamma * (x ** beta + y ** beta + (x * y) ** prod_exp) - c1 * x - c2 * y
        )

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
    return _exp_form_integral(beta, beta / 2.0, 0.0, 0.0, 1.0, cfg)


def trend_l(c: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """L(c) = int_0^inf exp(-x^2 - c x) dx, by quadrature.

    Satisfies the closed form (sqrt(pi)/2) e^(c^2/4) erfc(c/2), which the
    test suite uses as an independent oracle.
    """
    if c < 0:
        raise ValueError(f"c must be nonnegative, got {c}")
    env = DecayEnvelope(rate=1.0, power=2.0)
    return integrate_1d(lambda x: math.exp(-x * x - c * x), 0.0, math.inf, cfg, envelope=env)


def trend_k(c1: float, c2: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """K(c1, c2) = int int exp(-x^2 - y^2 - x y - c1 x - c2 y) over the quadrant.

    Symmetric in (c1, c2); coincides with k_beta(2) at c1 = c2 = 0.
    """
    if c1 < 0 or c2 < 0:
        raise ValueError(f"trend slopes must be nonnegative, got ({c1}, {c2})")
    return _exp_form_integral(2.0, 1.0, c1, c2, 1.0, cfg)


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
    c1,c2 : trend slopes (>= 0), used by the trend variants
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
    """
    g2 = spec.gamma * spec.u * spec.u
    floor = min(g2 ** (-1.0 / spec.beta), g2 ** (-1.0 / (2.0 * spec.a)), spec.delta)
    pts = _dyadic_down(spec.delta, floor / 64.0)

    def inner(x: float) -> float:
        val, _ = _integrate_panels(
            lambda y: math.exp(exponent(x, y)), pts, cfg, epsabs=0.0, epsrel=cfg.rel_tol
        )
        return val

    value, err = _integrate_panels(inner, pts, cfg, epsabs=0.0, epsrel=cfg.rel_tol)
    return _check_converged(value, err, cfg, "finite-domain double integral")


def i_gamma(spec: IntegralSpec, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Direct quadrature of int_0^delta int_0^delta exp(-gamma u^2 (x^b + y^b + (xy)^a))."""
    g2 = spec.gamma * spec.u * spec.u
    b, a = spec.beta, spec.a
    return _square_integral(spec, lambda x, y: -g2 * (x ** b + y ** b + (x * y) ** a), cfg)


def i_gamma_asymptote(
    spec: IntegralSpec, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> AsymptoticPrediction:
    """Leading u -> infinity form of i_gamma as (prefactor, u-power, log-power).

    Branches on a vs beta/2: below, the integral behaves like
    2(beta - 2a) Gamma(1/a) / (a^2 beta gamma^(1/a)) * u^(-2/a) * log u;
    at the boundary like the critical constant at rate gamma times
    u^(-4/beta); above like gamma^(-2/beta) G_beta^2 u^(-4/beta).
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
    if br == 0:
        pref = _exp_form_integral(beta, beta / 2.0, 0.0, 0.0, gamma, cfg)
        return AsymptoticPrediction(pref, -4.0 / beta, 0, uses_psi=False)
    gb = g_beta(beta)
    return AsymptoticPrediction(gamma ** (-2.0 / beta) * gb * gb, -4.0 / beta, 0, uses_psi=False)


def i_trend(spec: IntegralSpec, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Quadrature of int_0^delta int_0^delta exp(-u^2(x^2 + y^2 + (xy)^a) - u(c1 x + c2 y)).

    The trend variant is defined for beta = 2 only.
    """
    if spec.beta != 2.0:
        raise ValueError(f"trend integral requires beta = 2, got {spec.beta}")
    u, a, c1, c2 = spec.u, spec.a, spec.c1, spec.c2
    g2 = spec.gamma * u * u
    return _square_integral(
        spec,
        lambda x, y: -g2 * (x * x + y * y + (x * y) ** a) - u * (c1 * x + c2 * y),
        cfg,
    )


def i_trend_asymptote(
    spec: IntegralSpec, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> AsymptoticPrediction:
    """Leading form of i_trend: log branch below a = 1, K(c1,c2) at 1, L(c1)L(c2) above.

    In the log branch the trend affects only bounded terms, so the prefactor
    is independent of (c1, c2).
    """
    if spec.beta != 2.0:
        raise ValueError(f"trend asymptote requires beta = 2, got {spec.beta}")
    a = spec.a
    br = _boundary_cmp(a, 1.0)
    if br < 0:
        pref = 2.0 * (1.0 - a) * float(_spec.gamma(1.0 / a)) / (a * a)
        return AsymptoticPrediction(pref, -2.0 / a, 1, uses_psi=False)
    if br == 0:
        return AsymptoticPrediction(trend_k(spec.c1, spec.c2, cfg), -2.0, 0, uses_psi=False)
    return AsymptoticPrediction(
        trend_l(spec.c1, cfg) * trend_l(spec.c2, cfg), -2.0, 0, uses_psi=False
    )


def trend_side_asymptote(
    c: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> AsymptoticPrediction:
    """Leading form L(c) * u^(-1) of the one-dimensional trend integral
    int_0^delta exp(-u^2 x^2 - u c x) dx."""
    return AsymptoticPrediction(trend_l(c, cfg), -1.0, 0, uses_psi=False)


# ---------------------------------------------------------------------------
# Nested inner/outer integrals behind the logarithmic branch
# ---------------------------------------------------------------------------


def inner_a(
    Z: float,
    c1: float = 0.0,
    c2: float = 0.0,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    gamma: float = 1.0,
) -> float:
    """A(Z) = int_0^inf X^(-1) exp(-g X - g Z/X - c1 X - c2 Z/X) dX.

    Behaves like -log Z + O(1) as Z -> 0 and decays to 0 exponentially as
    Z -> infinity.  Computed after the substitution X = e^t, which turns the
    integrand into a smooth plateau with double-exponential tails.
    """
    if not (Z > 0):
        raise ValueError(f"Z must be positive, got {Z}")
    if c1 < 0 or c2 < 0:
        raise ValueError("trend slopes must be nonnegative")
    if not (gamma > 0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    a_coef = gamma + c1
    b_coef = (gamma + c2) * Z
    tau = math.log(1.0 / cfg.tail_cut_tol)
    t_hi = math.log(tau / a_coef) + 3.0
    t_lo = -math.log(tau / b_coef) - 3.0

    def f(t: float) -> float:
        return math.exp(-a_coef * math.exp(t) - b_coef * math.exp(-t))

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
        return math.exp(-gamma * W ** p) * inner_a(scale * W, 0.0, 0.0, cfg, gamma=gamma) / q

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
