"""Adaptive quadrature engine and the closed-form / asymptotic constants.

Everything here is deterministic numerics: the standard normal survival
function Psi, the one-dimensional constant G_beta = Gamma(1 + 1/beta), the
critical two-dimensional constant

    K_beta = int_0^inf int_0^inf exp(-x^beta - y^beta - (x y)^(beta/2)) dx dy,

the trend constants L(c) and K(c1, c2), the finite-domain integral

    i_gamma:  int_0^delta int_0^delta exp(-gamma u^2 (x^beta + y^beta + (xy)^a) - u(c1 x + c2 y))

(a nonzero trend slope c1, c2 requires beta = 2) together with its leading
asymptote as u -> infinity, whose prefactors are the product-regime
constants of `asymptotics.predict`.  K_beta and K(c1, c2) are its integrand
at gamma = u = 1, a = beta/2 over the quadrant, whose homogeneity leaves one
integral over the angle (`_critical_constant`).  Last comes the family

    J(lam) = int int X^(q-1) Y^(q-1) exp(-g X - g Y - g lam (XY)^p) dX dY
           = int_0^inf Z^(q-1) exp(-g lam Z^p) A(Z) dZ,
    A(Z)   = int_0^inf X^(-1) exp(-g X - g Z/X) dX = 2 K0(2 g sqrt(Z)),

whose ratio to the Gamma(q/p)/(p^2 g^(q/p)) * lam^(-q/p) * log(lam) leading
term tends to 1 like O(1/log lam).

Numerical strategy: every integral is a sum of QUADPACK panels between
breakpoints (`_integrate_panels`), each asked for the tolerances its caller
states, whose summed error estimate is checked against the configured ones
(`_check_converged`).  The one 2-D integral left, `i_gamma`, is iterated 1-D
with the inner integral adaptive per outer node (J is one integral over the
closed-form A).  Domains [0, delta] whose integrand lives on scales far below
delta are pre-split dyadically toward 0 so the adaptive routine never has to
discover the scale separation on its own; infinite domains are cut where an
envelope exp(-s) drops below 1e-16.  On the finite square, whose integrand
falls along both axes, a panel loop stops once a bound on the panels left is
below 2^-60 of its sum, where they could not change a bit of it
(`tail_bound`).  Only the tolerances are settable; `MAX_SUBDIVISIONS` and the
cut are fixed.

scipy is imported by the functions that call it, on first use: scipy.special
by the closed forms (G_beta, the log prefactor, log Psi where a prediction
overflows, erfcx for K(c1, c2), K0 for A) and scipy.integrate, whose import
costs about as much again, by the quadratures.  So a run that calls neither
(a Pickands or block Monte Carlo run) never loads scipy.  `load_scipy` imports
the modules a run will call ahead of time, so that the CLI's import stays
in its set-up; were it to miss one, the import would only move into the work.
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
_QUARTER_PI = math.pi / 4.0
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
    epsabs: float,
    epsrel: float,
    tail_bound: Callable[[float], float] | None = None,
) -> tuple[float, float]:
    """Sum of QUADPACK panels between consecutive breakpoints: (value, error estimate).

    Each panel is asked for `epsabs` and `epsrel`; the caller states both.
    `tail_bound(lo)` bounds the integral from lo to the last breakpoint, as
    (end - lo) f(lo) does for a positive non-increasing f.  Once it is at
    most 2^-60 of the sum so far, the loop adds it to the error and stops.
    Gauss-Kronrod weights are positive and sum to the panel width, so the
    skipped panels' estimates total less than half an ulp of the sum, with a
    64x margin that also covers QAGS's epsilon extrapolation (not a
    positive-weight sum): the sum keeps every bit.
    """
    from scipy import integrate

    total = 0.0
    err = 0.0
    # With full_output=1 QUADPACK reports trouble in its return value, not as
    # an IntegrationWarning; convergence is judged from abserr by the caller.
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
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
    if not math.isfinite(beta):  # Gamma(1) at beta = inf
        raise ValueError(f"beta must be finite, got {beta}")
    if not (beta > 0):
        raise ValueError(f"beta must be positive, got {beta}")
    from scipy import special

    return float(special.gamma(1.0 + 1.0 / beta))


def _g(z: float) -> float:
    """g(z) = 1 - sqrt(pi) z erfcx(z) for z >= 0.  Past z = 8, where the difference
    loses eps 2z^2 relative, the series sum_{n>=1} (-1)^(n+1) (2n-1)!! (2z^2)^-n
    (A&S 7.1.23), summed until a term is below an ulp of the sum."""
    if z <= 8.0:
        from scipy import special

        return 1.0 - math.sqrt(math.pi) * z * float(special.erfcx(z))
    total, term, n = 0.0, 0.5 / (z * z), 1
    while total + term != total:
        total += term
        n += 2
        term *= -0.5 * n / (z * z)
    return total


def _critical_constant(beta: float, c1: float, c2: float, cfg: QuadratureConfig) -> float:
    """int over [0,inf)^2 of exp(-(x^beta + y^beta + (xy)^(beta/2)) - c1 x - c2 y) as one
    integral over the angle t; the radial one is exact (a slope needs beta = 2).

    With A = 1 + cos t sin t and q = 2/beta, x = (r cos t)^q, y = (r sin t)^q and the
    radial Gamma(q) / (2 A^q) give K_beta = (q^2 Gamma(q)/2) int (cos t sin t)^(q-1)
    A^-q dt over [0, pi/2].  With a trend, x = r cos t, y = r sin t and the radial
    int r e^(-A r^2 - b r) dr = g(b / (2 sqrt A)) / (2A), b = c1 cos t + c2 sin t
    (A&S 7.4.2), give K(c1, c2).  Both fold onto [0, pi/4] by t -> pi/2 - t, which
    swaps c1 and c2, so the swap symmetry is exact; t = (pi/4) v^p, p = max(1, 1/q),
    takes the endpoint factor t^(q-1) dt to v^max(q-1, 0) dv, bounded on [0, 1]."""
    if not (2.0 / 171.0 < beta < math.inf):
        raise ValueError(f"K_beta needs a finite beta > 2/171 (Gamma(2/beta) a float); got {beta}")
    if (c1, c2) == (0.0, 0.0):
        q = 2.0 / beta
        p = max(1.0, 1.0 / q)

        def f(v: float) -> float:
            t = _QUARTER_PI * v ** p
            cos_t, sin_t = math.cos(t), math.sin(t)
            cos_sinc = cos_t * (sin_t / t if t > 0.0 else 1.0)
            return v ** max(q - 1.0, 0.0) * cos_sinc ** (q - 1.0) / (1.0 + cos_t * sin_t) ** q

        scale, hi = math.gamma(q) * _QUARTER_PI ** q * q * q * p, 1.0
    else:

        def f(t: float) -> float:
            cos_t, sin_t = math.cos(t), math.sin(t)
            a = 1.0 + cos_t * sin_t
            r = 2.0 * math.sqrt(a)
            return (_g((c1 * cos_t + c2 * sin_t) / r) + _g((c2 * cos_t + c1 * sin_t) / r)) / (2 * a)

        scale, hi = 1.0, _QUARTER_PI
    value, err = _integrate_panels(f, [0.0, hi], cfg.abs_tol / scale, cfg.rel_tol)
    return _check_converged(scale * value, scale * err, cfg, "critical-constant angle integral")


def k_beta(beta: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """K_beta = int_0^inf int_0^inf exp(-x^beta - y^beta - x^(beta/2) y^(beta/2)), the
    critical product constant: one angle integral after the radial Gamma integral."""
    return _critical_constant(beta, 0.0, 0.0, cfg)


def trend_l(c: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """L(c) = int_0^inf exp(-x^2 - c x) dx, by quadrature.

    Satisfies the closed form (sqrt(pi)/2) e^(c^2/4) erfc(c/2), which the
    test suite uses as an independent oracle.
    """
    if not (0.0 <= c < math.inf):
        raise ValueError(f"c must be nonnegative and finite, got {c}")
    R = math.sqrt(_TAIL_CUT_LOG)
    value, err = _integrate_panels(
        lambda x: math.exp(-x * x - c * x), [0.0, R], cfg.abs_tol, cfg.rel_tol
    )
    # the integrand is at most e^(-x^2), whose tail past R is (sqrt(pi)/2) erfc(R)
    tail = 0.5 * math.sqrt(math.pi) * math.erfc(R)
    return _check_converged(value, err + tail, cfg, "integral")


def trend_k(c1: float, c2: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """K(c1, c2) = int int exp(-x^2 - y^2 - x y - c1 x - c2 y) over the quadrant: one angle
    integral after the radial erfc integral, exactly symmetric in (c1, c2), and at
    c1 = c2 = 0 the same call as k_beta(2)."""
    if not (0.0 <= c1 < math.inf and 0.0 <= c2 < math.inf):
        raise ValueError(f"trend slopes must be nonnegative and finite, got ({c1}, {c2})")
    return _critical_constant(2.0, c1, c2, cfg)


def side_constants(
    beta: float, c1: float, c2: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """The one-dimensional constants of the two sides: L(c1), L(c2) when a
    slope is nonzero (a trend needs beta = 2), else G_beta for both."""
    if (c1, c2) == (0.0, 0.0):
        gb = g_beta(beta)
        return gb, gb
    if beta != 2.0:
        raise ValueError(f"a trend requires beta = 2 exactly, got beta={beta}")
    return trend_l(c1, cfg), trend_l(c2, cfg)


# ---------------------------------------------------------------------------
# Finite-domain integrals and their leading asymptotes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegralSpec:
    """Parameters of the finite-domain double integrals, all finite.

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
        if not math.isfinite(self.u):
            raise ValueError(f"level u must be finite, got {self.u}")
        for name in ("gamma", "beta", "a", "delta", "c1", "c2"):  # nan fails no sign check
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def i_gamma(spec: IntegralSpec, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Direct quadrature of the corner integral of f(x, y) = exp(-g2 (x^beta + y^beta
    + (xy)^a) - u(c1 x + c2 y)) over [0, delta]^2, g2 = gamma u^2, iterated 1-D.

    row(x) computes the terms in x alone once and returns y -> f(x, y); a trend is
    stated for beta = 2 only, where the sides are squared as x * x.  f lives on scales
    g2^(-1/beta), g2^(-1/(2a)) and below, so both axes are split dyadically from delta
    down past the smallest and each panel sees a single scale.  f decreases in each
    variable, so the panels from y on hold at most (delta - y) f(x, y) and those from
    x on at most (delta - x) delta f(x, 0): the tail bounds that let `_integrate_panels`
    skip the panels that cannot change a bit of the sum, among them all that underflow.
    """
    g2, beta, a, delta = spec.gamma * spec.u * spec.u, spec.beta, spec.a, spec.delta
    u, c1, c2 = spec.u, spec.c1, spec.c2
    if (c1, c2) == (0.0, 0.0):

        def row(x: float) -> Callable[[float], float]:
            xb = x ** beta
            return lambda y: math.exp(-g2 * (xb + y ** beta + (x * y) ** a))

    else:

        def row(x: float) -> Callable[[float], float]:
            xx, cx = x * x, c1 * x
            return lambda y: math.exp(-g2 * (xx + y * y + (x * y) ** a) - u * (cx + c2 * y))

    floor = min(g2 ** (-1.0 / beta), g2 ** (-1.0 / (2.0 * a)), delta)
    pts = _dyadic_down(delta, floor / 64.0)

    def inner(x: float) -> float:
        fx = row(x)
        return _integrate_panels(fx, pts, 0.0, cfg.rel_tol, lambda y: (delta - y) * fx(y))[0]

    value, err = _integrate_panels(
        inner, pts, 0.0, cfg.rel_tol, lambda x: (delta - x) * delta * row(x)(0.0)
    )
    return _check_converged(value, err, cfg, "finite-domain double integral")


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
        const = _critical_constant(beta, c1, c2, cfg)
    else:
        s1, s2 = side_constants(beta, c1, c2, cfg)
        const = s1 * s2
    return AsymptoticPrediction(gamma ** (-2.0 / beta) * const, -4.0 / beta, 0, uses_psi=False)


# ---------------------------------------------------------------------------
# The J(lam) family behind the logarithmic branch
# ---------------------------------------------------------------------------


def inner_a(Z: float, cfg: QuadratureConfig = DEFAULT_CONFIG, gamma: float = 1.0) -> float:
    """A(Z) = int_0^inf X^(-1) exp(-g X - g Z/X) dX, with g = gamma.

    Evaluated in closed form as 2 K0(2 g sqrt(Z)) (DLMF 10.32.10, A&S 9.6.24)
    through scipy.special.k0.  Behaves like -log Z + O(1) as Z -> 0 and decays to 0
    exponentially as Z -> infinity.  A fixed trend would move only bounded
    terms of the log branch (see `i_gamma_asymptote`), so A carries none.
    `cfg` is accepted for interface uniformity, as in `g_beta`.
    """
    for name, x in (("Z", Z), ("gamma", gamma)):  # A = 0 at an infinite Z or gamma
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
        if not (x > 0):
            raise ValueError(f"{name} must be positive, got {x}")
    from scipy import special

    return 2.0 * float(special.k0(2.0 * gamma * math.sqrt(Z)))


def j_lambda_ratio(
    lam: float,
    p: float,
    q: float,
    gamma: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """J(lam), one quadrature over the closed-form A, divided by its leading asymptote.

    J(lam) = int_0^inf Z^(q-1) exp(-gamma lam Z^p) A(Z) dZ with A = `inner_a`;
    the leading term is
    Gamma(q/p) / (p^2 gamma^(q/p)) * lam^(-q/p) * log(lam).  The ratio tends
    to 1 at rate O(1/log lam).

    Numerically, Z is rescaled by lam^(-1/p) and the endpoint singularity
    Z^(q-1) is removed by a further power substitution, so the outer
    integrand is bounded and single-scale.
    """
    if not (1.0 < lam < math.inf):
        raise ValueError(f"lam must be finite and exceed 1, got {lam}")
    if not all(0.0 < v < math.inf for v in (p, q, gamma)):
        raise ValueError(f"p, q, gamma must be positive and finite, got ({p}, {q}, {gamma})")
    from scipy import special

    scale = lam ** (-1.0 / p)

    # J = lam^{-q/p} * int W^{q-1} e^{-gamma W^p} A(scale * W) dW; then V = W^q.
    def f(V: float) -> float:
        W = V ** (1.0 / q)
        return math.exp(-gamma * W ** p) * inner_a(scale * W, cfg, gamma) / q

    w_max = (_TAIL_CUT_LOG / gamma) ** (1.0 / p)
    v_max = w_max ** q
    pts = _dyadic_down(v_max, min(1.0, v_max) * 2.0 ** -20)
    value, err = _integrate_panels(f, pts, 0.0, max(cfg.rel_tol, 1e-9))
    _check_converged(value, err, cfg, "outer scale integral")
    j_val = lam ** (-q / p) * value
    leading = (
        float(special.gamma(q / p))
        / (p * p * gamma ** (q / p))
        * lam ** (-q / p)
        * math.log(lam)
    )
    return j_val / leading
