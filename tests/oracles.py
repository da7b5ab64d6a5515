"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: closed
forms, textbook reflection formulas, special functions, and a spectral
(eigendecomposition) field sampler that shares no factorization code with
the package.  Tests compare library outputs against these.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, special

EULER_GAMMA = 0.5772156649015329


def psi_oracle(u: float) -> float:
    return 0.5 * math.erfc(u / math.sqrt(2.0))


def phi_oracle(u: float) -> float:
    return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def trend_l_closed_form(c: float) -> float:
    """L(c) = (sqrt(pi)/2) exp(c^2/4) erfc(c/2)."""
    return 0.5 * math.sqrt(math.pi) * math.exp(c * c / 4.0) * math.erfc(c / 2.0)


def inner_a_cosh_form(Z: float, gamma: float = 1.0) -> float:
    """A(Z) = 2 K0(x), x = 2 gamma sqrt(Z), by quadrature of the integral
    representation K0(x) = int_0^inf exp(-x cosh s) ds (DLMF 10.32.9), not
    through the Bessel routine the library calls.

    The factor e^(-x) comes out in front, so the integrand exp(-x (cosh s - 1))
    is 1 at s = 0 at every scale, and the range ends where it is e^-50.
    """
    x = 2.0 * gamma * math.sqrt(Z)
    s_max = math.acosh(1.0 + 50.0 / x)
    val, _ = integrate.quad(lambda s: math.exp(-x * (math.cosh(s) - 1.0)), 0.0, s_max,
                            epsabs=0.0, epsrel=1e-13, limit=500)
    return 2.0 * math.exp(-x) * val


def j_ratio_second_order(lam: float, p: float, q: float, gamma: float) -> float:
    """Second-order expansion of J(lam)/leading including the -log W term."""
    corr = float(special.digamma(q / p)) + 2.0 * p * EULER_GAMMA + (2.0 * p - 1.0) * math.log(gamma)
    return 1.0 - corr / math.log(lam)


def i_log_ratio_second_order(u: float, gamma: float, beta: float, a: float) -> float:
    """Second-order ratio for the log branch of the finite-domain integral."""
    p = a / beta
    lam = u ** (2.0 - 4.0 * a / beta)
    return j_ratio_second_order(lam, p, 1.0 / beta, gamma)


def log_k_beta_oracle(beta: float) -> float:
    """log K_beta from the angle form in the variable w = cos t sin t.

    K_beta = (q^2 Gamma(q)/2) int_0^(pi/2) (cos t sin t)^(q-1) (1 + cos t sin t)^-q dt,
    q = 2/beta.  Folding at t = pi/4 and setting w = sin(2t)/2, with
    dt = dw / sqrt(1 - 4 w^2) and 1 - 4 w^2 = 2 (1/2 - w)(1 + 2w), gives
    sqrt(2) int_0^(1/2) w^(q-1) (1 + w)^-q (1 + 2w)^(-1/2) (1/2 - w)^(-1/2) dw,
    whose endpoint singularity QUADPACK takes as an algebraic weight.  Gamma(q)
    enters as its log, so the value stays finite where K_beta overflows.
    """
    q = 2.0 / beta

    def f(w: float) -> float:
        if w <= 0.0:
            return 0.0
        return math.exp((q - 1.0) * math.log(w) - q * math.log1p(w) - 0.5 * math.log1p(2.0 * w))

    val, _ = integrate.quad(
        f, 0.0, 0.5, weight="alg", wvar=(0.0, -0.5), epsabs=0.0, epsrel=1e-13, limit=200
    )
    return math.log(q * q / 2.0) + float(special.gammaln(q)) + math.log(math.sqrt(2.0) * val)


def k_beta_series(beta: float) -> float:
    """K_beta by the binomial series of (1 + cos t sin t)^-q, q = 2/beta.

    K_beta = (q^2 Gamma(q)/2) int_0^(pi/2) (cos t sin t)^(q-1) (1 + cos t sin t)^-q dt
    and cos t sin t <= 1/2, so expanding the last factor and integrating term
    by term with the Wallis integral
    int_0^(pi/2) (cos t sin t)^m dt = 2^-m B((m+1)/2, 1/2) / 2 gives a series
    whose terms fall like 2^-n.  Its alternating terms first grow when q is
    large, so it cancels at small beta (about 1e-11 relative at beta = 0.2).
    """
    q = 2.0 / beta
    total, coef = 0.0, 1.0  # coef = binom(-q, n), by its recurrence
    for n in range(4000):
        m = q - 1.0 + n
        term = coef * 2.0 ** -m * float(special.beta((m + 1.0) / 2.0, 0.5)) / 2.0
        total += term
        if n > q and abs(term) <= 1e-18 * abs(total):
            return q * q * math.gamma(q) / 2.0 * total
        coef *= -(q + n) / (n + 1.0)
    raise RuntimeError(f"series for K_beta did not converge at beta={beta}")


def trend_k_cartesian(c1: float, c2: float) -> float:
    """K(c1, c2) with the x integral in closed form, then one quadrature over y:

    int_0^inf exp(-x^2 - x y - c1 x) dx = (sqrt(pi)/2) erfcx((y + c1)/2), so
    K = (sqrt(pi)/2) int_0^inf exp(-y^2 - c2 y) erfcx((y + c1)/2) dy.  y is
    rescaled by 1/(1 + c2), the width of the exp(-c2 y) factor; erfcx varies
    on scale 1 + c1 or wider, so the rescaled integrand is single-scale at
    any slope and never cancels.
    """
    s = 1.0 / (1.0 + c2)

    def f(t: float) -> float:
        y = s * t
        return math.exp(-y * y - c2 * y) * float(special.erfcx((y + c1) / 2.0))

    val, _ = integrate.quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)
    return 0.5 * math.sqrt(math.pi) * s * val


def mc_k_beta(beta: float, n: int, seed: int) -> tuple[float, float]:
    """Coarse Monte Carlo for K_beta: E exp(-(XY)^(beta/2)) under X,Y ~ Weibull.

    With X = U^(1/beta) for U ~ Exp(1), the density of X is
    beta x^(beta-1) e^(-x^beta), so
    K_beta = E[ exp(-(XY)^(beta/2)) / (beta^2 (XY)^(beta-1)) ].
    """
    rng = np.random.default_rng(seed)
    x = rng.exponential(size=n) ** (1.0 / beta)
    y = rng.exponential(size=n) ** (1.0 / beta)
    vals = np.exp(-((x * y) ** (beta / 2.0))) / (beta * beta * (x * y) ** (beta - 1.0))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


def exact_h1(S: float) -> float:
    """H_1(S) by quadrature of the reflection formula for drifted BM.

    P(sup_{t<=S}(sqrt2 B(t) - t) > x) = Psi((x+S)/sqrt(2S)) + e^-x Phi((S-x)/sqrt(2S)).
    """
    rt = math.sqrt(2.0 * S)

    def tail(x: float) -> float:
        return psi_oracle((x + S) / rt) + math.exp(-x) * (1.0 - psi_oracle((S - x) / rt))

    hi = S + 40.0 * rt
    val, _ = integrate.quad(lambda x: math.exp(x) * tail(x), 0.0, hi,
                            epsabs=1e-12, epsrel=1e-11, limit=500)
    return 1.0 + val


def exact_h2(S: float) -> float:
    """H_2(S) = 1 + S / sqrt(pi), exactly (degenerate fBm B_2(t) = t N)."""
    return 1.0 + S / math.sqrt(math.pi)


def h2_grid_quadrature(S: float, n_points: int) -> float:
    """Grid-max version of H_2(S): E exp(max_i (sqrt2 t_i N - t_i^2)) by quadrature.

    Matches the Monte Carlo estimator's discrete target exactly (no
    discretization mismatch), so MC agreement is a pure 3-sigma check.
    """
    t = np.linspace(0.0, S, n_points)

    def f(n: float) -> float:
        return math.exp(float(np.max(math.sqrt(2.0) * t * n - t * t))) * phi_oracle(n)

    val, _ = integrate.quad(f, -40.0, 40.0, epsabs=1e-12, epsrel=1e-10, limit=500)
    return val


def spectral_excursion_probability(
    params, n_per_axis: int, u: float, n_samples: int, seed: int, batch: int = 512
) -> tuple[float, float]:
    """Independent field MC: dense covariance + eigendecomposition sampling.

    Assembles the Gram matrix straight from the model formulas and samples
    with Q sqrt(diag(lambda)) G; shares no code with the package's Cholesky
    or Kronecker paths.
    """
    xs = np.linspace(0.0, params.T, n_per_axis)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    x = X.ravel()
    y = Y.ravel()
    sig = np.exp(-(x ** params.beta + y ** params.beta + (x * y) ** params.a))
    corr = np.exp(
        -np.abs(x[:, None] - x[None, :]) ** params.alpha
        - np.abs(y[:, None] - y[None, :]) ** params.alpha
    )
    gram = sig[:, None] * corr * sig[None, :]
    lam, q = np.linalg.eigh(gram)
    if lam.min() < -1e-10:
        raise AssertionError(f"spectral oracle found min eigenvalue {lam.min():.3e}")
    a = q * np.sqrt(np.clip(lam, 0.0, None))
    rng = np.random.default_rng(seed)
    n_pts = len(x)
    count = 0
    done = 0
    while done < n_samples:
        take = min(batch, n_samples - done)
        g = rng.standard_normal((n_pts, take))
        count += int(((a @ g).max(axis=0) > u).sum())
        done += take
    p = count / n_samples
    return p, math.sqrt(p * (1.0 - p) / n_samples)


def i_gamma_nested_quadpack(sp, rel_tol: float = 1e-10) -> float:
    """The corner integral of f(x, y) = exp(-g2 (x^beta + y^beta + (xy)^a) - u(c1 x + c2 y)),
    g2 = gamma u^2, over [0, delta]^2 as nested QUADPACK: the inner integral over y is
    adaptive at every outer node, and both sum every dyadic panel of [0, delta] down to
    1/64 of the smallest scale, none skipped.  A slow reference for the library's fixed
    inner rule."""
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
            total += integrate.quad(h, lo, hi, epsabs=0.0, epsrel=rel_tol, limit=2000)[0]
        return total

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return panels(lambda x: panels(lambda y: f(x, y)))


def i_gamma_log_trapezoid(sp, h: float, s_lo: float, rows: int = 128) -> float:
    """The corner integral (as in `i_gamma_nested_quadpack`) by the trapezoid rule in
    log coordinates.

    x = e^s, y = e^t turn it into the integral of exp(s + t - g2 (...) - u (...)) over
    (-inf, log delta]^2.  That integrand is analytic, falls like e^s as s -> -inf and
    double-exponentially once g2 x^beta is large, so the trapezoid rule of step h
    converges geometrically in 1/h wherever f is negligible on the edges x = delta and
    y = delta (a level u well above 1/delta).  The grid runs from log delta down to
    s_lo; the two strips below it hold at most 2 e^s_lo Gamma(1 + 1/beta) g2^(-1/beta),
    which must be below 1e-16 of the sum.  `rows` rows of the grid are summed at a time.
    """
    g2, u = sp.gamma * sp.u * sp.u, sp.u
    s = math.log(sp.delta) - h * np.arange(int((math.log(sp.delta) - s_lo) / h) + 1)
    w = np.ones_like(s)
    w[0] = w[-1] = 0.5
    x = np.exp(s)
    side, prod = np.exp(sp.beta * s), np.exp(sp.a * s)
    t_part = s - g2 * side - u * sp.c2 * x + np.log(w)
    chunks = []
    for i in range(0, len(s), rows):
        r = slice(i, i + rows)
        s_part = (s[r] - g2 * side[r] - u * sp.c1 * x[r] + np.log(w[r]))[:, None]
        chunks.append(float(np.exp(s_part + t_part - g2 * prod[r, None] * prod).sum()))
    value = h * h * math.fsum(chunks)
    strips = 2.0 * math.exp(s_lo) * math.gamma(1.0 + 1.0 / sp.beta) * g2 ** (-1.0 / sp.beta)
    if not strips <= 1e-16 * value:
        raise AssertionError(f"the strips below s_lo = {s_lo} may hold {strips:.3g} of {value:.3g}")
    return value
