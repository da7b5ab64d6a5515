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

Numerical strategy: every integral is one call to `_gk21`, a global adaptive
21-point Gauss-Kronrod engine in numpy on QUADPACK's rule (dqk21), over panels
between breakpoints, asked for the tolerances its caller states; its error
estimate is checked against the configured ones (`_check_converged`).  It
evaluates every panel that needs work in one call to a vectorised integrand and
bisects those with the largest error estimates, so a one-panel integral keeps
QUADPACK's bits and a bisected one moves in the last digits.  The one 2-D
integral left, `i_gamma`, is iterated 1-D: the engine over x, and over y the
fixed 21-point rule on finer panels, a whole outer panel's rows at a time, whose
error estimate is carried into the check (J is one integral over the
closed-form A).  Domains [0, delta] whose integrand lives on scales far below
delta are pre-split dyadically toward 0 so the engine never has to discover the
scale separation on its own; infinite domains are cut where an envelope exp(-s)
drops below 1e-16.  On the finite square, whose integrand falls along both axes,
the outer integral leaves out the panels once a bound on those left is below
2^-60 of its sum, where they could not change a bit of it (`tail_bound`).  Only
the tolerances are settable; `MAX_SUBDIVISIONS`, the cut and the inner rule's
depth (`_INNER_HALVINGS`) are fixed.

scipy.special is the one scipy module here, imported by the functions that
call it, on first use: by the closed forms (G_beta, the log prefactor, log Psi
where a prediction overflows, erfcx for K(c1, c2), K0 for A).  So a run that
calls none of them (a Pickands or block Monte Carlo run) never loads scipy.
`load_scipy` imports it ahead of time, so that the CLI's import stays in its
set-up; were it to miss a run, the import would only move into the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
_LOG_HALF_TINY = -1075.0 * math.log(2.0)  # below half the smallest subnormal, a value rounds to 0
MAX_SUBDIVISIONS = 2000  # the most panels of one `_gk21` integral
_TAIL_CUT_LOG = math.log(1.0 / 1e-16)  # infinite domains end where an envelope exp(-s) is 1e-16
# i_gamma's inner panels go this many halvings below its outer ones, into the (xy)^a cusp
# at y = 0; at 40, dqk21's estimate on the first panel fails the deep log branch at a = 0.2
_INNER_HALVINGS = 60

# QUADPACK's 21-point Gauss-Kronrod rule (dqk21) on [-1, 1]: the nodes from -1 to 1, the
# Kronrod weights, and the 10-point Gauss weights at every second node (0 at the others)
_QK21_HALF = (  # (node, Kronrod weight, Gauss weight) from the end to the centre, as in dqk21
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192, 0.0),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390,
     0.066671344308688137593568809893332),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580, 0.0),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190,
     0.149451349150580593145776339657697),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366, 0.0),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     0.219086362515982043995534934228163),
    (0.562757134668604683339000099272694, 0.123491976262065851077600548929500, 0.0),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     0.269266719309996355091226921569469),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717, 0.0),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     0.295524224714752870173892994651338),
    (0.0, 0.149445554002916905664936468389821, 0.0),
)
_QK21_X, _QK21_WK, _QK21_WG = (
    np.array([sign * v for v in col] + list(col[-2::-1]))
    for sign, col in zip((-1.0, 1.0, 1.0), zip(*_QK21_HALF))
)
_QK21_PAIRS = np.array([1, 3, 5, 7, 9, 0, 2, 4, 6, 8])  # dqk21's order of the node pairs


def load_scipy() -> None:
    """Import scipy.special ahead of its first use."""
    import scipy.special  # noqa: F401


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


def _gk21(
    f: Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, np.ndarray]],
    breakpoints: Sequence[float],
    epsabs: float,
    epsrel: float,
    tail_bound: Callable[[float], float] | None = None,
) -> tuple[float, float]:
    """Global adaptive 21-point Gauss-Kronrod quadrature of f >= 0 over the panels
    between consecutive breakpoints: (value, error estimate).

    f maps an (m, 21) array, the dqk21 nodes of m panels, to f there.  Each round
    evaluates every new panel in one call to f, then bisects the panels with the
    largest error estimates: the fewest whose estimates exceed the summed estimate's
    excess over max(epsabs, epsrel |value|).  It stops once the sum is within that
    tolerance, or once there are `MAX_SUBDIVISIONS` panels, and the caller's
    `_check_converged` judges the estimate.  The value is summed in panel order, and
    each panel's sums run in dqk21's order, so a one-panel integral has QUADPACK's bits.
    f may also return an error bound per node beside its values (an inner integral's
    estimate); integrated with the Kronrod weights it joins the error estimate but
    steers no bisection, which cannot reduce it.

    `tail_bound(lo)` bounds the integral from lo to the last breakpoint, as
    (end - lo) f(lo) does for a positive non-increasing f.  With it the panels are
    taken from the left in doubling waves (8, 16, ...), each only while its bound
    exceeds 2^-60 of the sum so far; the first that does not ends the domain, and its
    bound joins the error.  Gauss-Kronrod weights are positive and sum to the panel
    width, so the panels left out would add less than half an ulp of the sum, with a
    64x margin: the sum keeps every bit.
    """
    edges = np.asarray(breakpoints, dtype=float)
    n_panels = len(edges) - 1
    taken, wave, cut_err = 0, 4, 0.0
    table = np.empty((5, 0))  # per panel: lo, hi, value, error, inner error
    while True:
        total = float(table[2].sum())
        stop = n_panels
        if tail_bound is not None:  # the next wave
            wave *= 2
            stop = min(taken + wave, n_panels)
            for k in range(taken, stop):
                if (bound := tail_bound(float(edges[k]))) <= total * 2.0 ** -60:
                    stop = n_panels = k
                    cut_err = bound
                    break
        lo, hi = edges[taken:stop], edges[taken + 1 : stop + 1]
        taken = stop
        excess = float(table[3].sum()) - max(epsabs, epsrel * abs(total))
        room = MAX_SUBDIVISIONS - table.shape[1] - len(lo)
        if excess > 0.0 and room > 0:
            # a panel within 2x of dqk21's roundoff floor, 50 eps of its value, gains
            # nothing by halving
            open_ = np.flatnonzero(table[3] > 100.0 * 2.0 ** -52 * table[2])
            worst = open_[np.argsort(-table[3, open_], kind="stable")]
            pick = worst[: min(int(np.searchsorted(np.cumsum(table[3, worst]), excess)) + 1, room)]
            a, b = table[:2, pick]
            mid = 0.5 * (a + b)
            halves = (a < mid) & (mid < b)  # a panel too narrow to halve stays whole
            table = np.delete(table, pick[halves], axis=1)
            lo = np.concatenate([lo, a[halves], mid[halves]])
            hi = np.concatenate([hi, mid[halves], b[halves]])
        if not len(lo):
            break
        half = 0.5 * (hi - lo)
        res = f((0.5 * (lo + hi))[:, None] + half[:, None] * _QK21_X)
        vals, node_err = res if isinstance(res, tuple) else (res, None)
        kronrod, err = _qk21(vals)
        inner = np.zeros_like(half) if node_err is None else (node_err @ _QK21_WK) * half
        table = np.concatenate([table, [lo, hi, kronrod * half, err * half, inner]], axis=1)
    value = float(np.cumsum(table[2, np.argsort(table[0])])[-1]) if table.shape[1] else 0.0
    return value, float(table[3].sum() + table[4].sum()) + cut_err


def _check_converged(
    value: float, err: float, cfg: QuadratureConfig, what: str, relative: bool = False
) -> float:
    """`value` if `err` is within the configured tolerances, `rel_tol` alone if
    `relative`; else ConvergenceError."""
    # dqk21's error estimates overstate the true error by orders of
    # magnitude near machine precision; the 10x slack avoids spurious
    # failures without materially loosening the guarantee.
    tol = cfg.rel_tol * abs(value) if relative else max(cfg.abs_tol, cfg.rel_tol * abs(value))
    if err > tol * 10.0:
        raise ConvergenceError(f"{what} did not converge to tolerance", value, err)
    return value


def _qk21_error(kronrod: np.ndarray, gauss: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """dqk21's error estimate of each panel per unit half width (it scales with the width)
    from the panel's Kronrod and Gauss sums and sum of w_k |f - mean f|, for f >= 0."""
    err = np.abs(kronrod - gauss)
    ratio = np.divide(200.0 * err, spread, out=np.zeros_like(err), where=spread > 0.0)
    err = np.where(spread > 0.0, spread * np.minimum(1.0, ratio ** 1.5), err)
    return np.maximum(err, 50.0 * 2.0 ** -52 * kronrod)  # at least 50 eps of the result


def _qk21(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's Kronrod sum and dqk21 error estimate per unit half width, from f >= 0 at
    the 21 nodes.  The sums run in dqk21's order: the centre, then the pairs
    f(c - h x_j) + f(c + h x_j) at the Gauss nodes from the end inward, then the others."""
    pairs = (vals[:, :10] + vals[:, :10:-1])[:, _QK21_PAIRS]
    terms = [_QK21_WK[10] * vals[:, 10:11], pairs * _QK21_WK[_QK21_PAIRS]]
    kronrod = np.cumsum(np.concatenate(terms, axis=1), axis=1)[:, -1]
    gauss = np.cumsum(pairs[:, :5] * _QK21_WG[_QK21_PAIRS[:5]], axis=1)[:, -1]
    spread = np.abs(vals - 0.5 * kronrod[:, None]) @ _QK21_WK
    return kronrod, _qk21_error(kronrod, gauss, spread)


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


def _g(z: np.ndarray) -> np.ndarray:
    """g(z) = 1 - sqrt(pi) z erfcx(z) for z >= 0.  Past z = 8, where the difference
    loses eps 2z^2 relative, the series sum_{n>=1} (-1)^(n+1) (2n-1)!! (2z^2)^-n
    (A&S 7.1.23), each entry summed until a term is below an ulp of its sum."""
    from scipy import special

    near = z <= 8.0
    out = 1.0 - math.sqrt(math.pi) * z * special.erfcx(np.where(near, z, 0.0))
    far = z[~near]
    total, term, n = np.zeros_like(far), 0.5 / (far * far), 1
    going = total + term != total
    while going.any():
        total[going] += term[going]
        n += 2
        term = term * (-0.5 * n / (far * far))
        going &= total + term != total
    out[~near] = total
    return out


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
    if not (0.0 < beta < math.inf):
        raise ValueError(f"K_beta needs a finite beta > 0; got {beta}")
    if (c1, c2) == (0.0, 0.0):
        q = 2.0 / beta
        p = max(1.0, 1.0 / q)

        def f(v: np.ndarray) -> np.ndarray:
            t = _QUARTER_PI * v ** p
            cos_t, sin_t = np.cos(t), np.sin(t)
            cos_sinc = cos_t * np.divide(sin_t, t, out=np.ones_like(t), where=t > 0.0)
            return v ** max(q - 1.0, 0.0) * cos_sinc ** (q - 1.0) / (1.0 + cos_t * sin_t) ** q

        if beta < 1.0:
            # Gamma(q) overflows from beta = 2/171, long before K_beta does: the
            # prefactor is summed in logs and only K_beta itself must be a float
            log_scale = math.lgamma(q) + q * math.log(_QUARTER_PI) + math.log(q * q * p)
            value, err = _gk21(f, [0.0, 1.0], cfg.abs_tol * math.exp(-log_scale), cfg.rel_tol)
            log_k = log_scale + math.log(value)
            if log_k >= _LOG_MAX:
                raise ValueError(f"K_beta = exp({log_k:.6g}) overflows a float at beta = {beta}")
            k = math.exp(log_k)
            return _check_converged(k, k * (err / value), cfg, "critical-constant angle integral")
        scale, hi = math.gamma(q) * _QUARTER_PI ** q * q * q * p, 1.0
    else:

        def f(t: np.ndarray) -> np.ndarray:
            cos_t, sin_t = np.cos(t), np.sin(t)
            a = 1.0 + cos_t * sin_t
            r = 2.0 * np.sqrt(a)
            return (_g((c1 * cos_t + c2 * sin_t) / r) + _g((c2 * cos_t + c1 * sin_t) / r)) / (2 * a)

        scale, hi = 1.0, _QUARTER_PI
    value, err = _gk21(f, [0.0, hi], cfg.abs_tol / scale, cfg.rel_tol)
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
    value, err = _gk21(lambda x: np.exp(-x * x - c * x), [0.0, R], cfg.abs_tol, cfg.rel_tol)
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

    f lives on scales g2^(-1/beta), g2^(-1/(2a)) and below, so [0, delta] is split
    dyadically from delta down past the smallest, and each panel sees a single scale.
    A trend is stated for beta = 2 only, where the sides are squared as t * t.  The
    outer integral over x is `_gk21` on those panels, stopped at a hundredth of
    `rel_tol` (stopped at `rel_tol`, the log branch lands 1e-13 from its oracle).  f
    decreases in each variable, so the panels from x on hold at most
    (delta - x) delta f(x, 0): the tail bound that lets `_gk21` leave out the panels
    that cannot change a bit of the sum, among them all that underflow.

    The inner integral over y is QUADPACK's fixed 21-point Gauss-Kronrod rule (qk21)
    on the same panels, halved `_INNER_HALVINGS` more times toward 0: the nodes, the
    weights and the terms in y alone are computed once.  An outer panel's 21 rows are
    one (21 x inner panels, 21) block, computed in place, whose Kronrod and Gauss sums
    are one matrix product.  Each row's error is qk21's estimate summed over the
    panels, integrated along x with the outer Kronrod weights; it joins the outer
    estimate, and the sum is checked against `rel_tol` alone, since the value can be
    far below any absolute tolerance.

    I is at most (G_beta g2^(-1/beta))^2, the integral over the quadrant without the
    product and the trend.  Where that bound rounds to 0 so does I, and 0.0 is
    returned; otherwise a g2 that overflows is refused, and a sum of 0 (a scale below
    the split's 2^-80 delta, where every node sees f = 0) raises ConvergenceError.
    """
    beta, a, delta, u, c1, c2 = spec.beta, spec.a, spec.delta, spec.u, spec.c1, spec.c2
    log_g2 = math.log(spec.gamma) + 2.0 * math.log(u)
    if 2.0 * (math.lgamma(1.0 + 1.0 / beta) - log_g2 / beta) < _LOG_HALF_TINY:
        return 0.0
    g2 = spec.gamma * u * u
    if math.isinf(g2):
        raise ValueError(f"gamma u^2 = exp({log_g2:.6g}) overflows a float at u = {u}")
    trend = (c1, c2) != (0.0, 0.0)

    def side(t: float | np.ndarray) -> float | np.ndarray:
        return t * t if trend else t ** beta

    floor = min(g2 ** (-1.0 / beta), g2 ** (-1.0 / (2.0 * a)), delta)
    pts = _dyadic_down(delta, floor / 64.0)
    below = [math.ldexp(pts[1], -k) for k in range(_INNER_HALVINGS, 0, -1)]
    ypts = np.array([0.0] + below + pts[1:])
    y_half = 0.5 * np.diff(ypts)
    y = (0.5 * (ypts[:-1] + ypts[1:]))[:, None] + y_half[:, None] * _QK21_X  # (panels, 21)
    with np.errstate(over="ignore"):  # an exponent that overflows is -inf, and f = 0 its limit
        y_exp, y_a = -g2 * side(y) - u * c2 * y, y ** a
    weights = np.stack([_QK21_WK, _QK21_WG], axis=1)

    def rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, errs = np.empty_like(x), np.empty_like(x)
        block = np.empty((21, *y.shape))  # the f of one outer panel's 21 rows
        flat = block.reshape(-1, 21)
        for i, xs in enumerate(x):  # one outer panel
            with np.errstate(over="ignore"):
                np.multiply((xs ** a)[:, None, None], y_a, out=block)
                block += side(xs)[:, None, None]
                block *= -g2
                block += y_exp
                block -= (u * c1 * xs)[:, None, None]
            np.exp(block, out=block)
            kronrod, gauss = (flat @ weights).T
            flat -= 0.5 * kronrod[:, None]
            spread = np.abs(flat, out=flat) @ _QK21_WK
            values[i] = kronrod.reshape(21, -1) @ y_half
            errs[i] = _qk21_error(kronrod, gauss, spread).reshape(21, -1) @ y_half
        return values, errs

    value, err = _gk21(
        rows, pts, 0.0, cfg.rel_tol / 100.0,
        lambda x: (delta - x) * delta * math.exp(-g2 * side(x) - u * c1 * x),
    )
    what = "finite-domain double integral"
    if value == 0.0:
        raise ConvergenceError(f"{what} did not converge: its scale lies below the split", 0.0, err)
    return _check_converged(value, err, cfg, what, relative=True)


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
        const = k_beta(beta, cfg) if (c1, c2) == (0.0, 0.0) else trend_k(c1, c2, cfg)
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

    # J = lam^{-q/p} * int W^{q-1} e^{-gamma W^p} A(scale * W) dW; then V = W^q, and A is
    # `inner_a`'s closed form on the whole array of nodes
    def f(V: np.ndarray) -> np.ndarray:
        W = V ** (1.0 / q)
        return np.exp(-gamma * W ** p) * (2.0 * special.k0(2.0 * gamma * np.sqrt(scale * W))) / q

    w_max = (_TAIL_CUT_LOG / gamma) ** (1.0 / p)
    v_max = w_max ** q
    pts = _dyadic_down(v_max, min(1.0, v_max) * 2.0 ** -20)
    value, err = _gk21(f, pts, 0.0, max(cfg.rel_tol, 1e-9))
    _check_converged(value, err, cfg, "outer scale integral")
    j_val = lam ** (-q / p) * value
    leading = (
        float(special.gamma(q / p))
        / (p * p * gamma ** (q / p))
        * lam ** (-q / p)
        * math.log(lam)
    )
    return j_val / leading
