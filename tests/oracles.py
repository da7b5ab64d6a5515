"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: closed
forms, textbook reflection formulas, special functions, and a spectral
(eigendecomposition) field sampler that shares no factorization code with
the package.  Tests compare library outputs against these.
"""

from __future__ import annotations

import math

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
