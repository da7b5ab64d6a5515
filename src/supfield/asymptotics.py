"""Leading-order excursion probability predictions, by regime.

For the field family of `model`, the supremum tail p(u) = P(sup X > u)
satisfies, as u -> infinity,

    SideDominated   (a < a0):          2 H G_b * u^(2/alpha - 2/beta) * Psi(u)
    LogProduct      (a0 <= a < b/2):   H^2 * 2(b-2a)Gamma(1/a)/(a^2 b)
                                         * u^(4/alpha - 2/a) * log(u) * Psi(u)
    CriticalProduct (a = b/2):         H^2 K_b * u^(4/alpha - 4/beta) * Psi(u)
    Classical       (a > b/2):         H^2 G_b^2 * u^(4/alpha - 4/beta) * Psi(u)

with b = beta, H the Pickands constant of the correlation exponent alpha,
and G_b, K_b the constants from `quad`.  With a trend (beta = 2,
nonnegative slopes c1, c2, not both zero) `predict` replaces the side and
product constants by L(c) and K(c1, c2); in the log regime a fixed trend
moves only bounded terms and leaves the prefactor unchanged.

H is an input here, not computed inline: pass a `pickands` estimate or use
the known-values table (only H = 1 at alpha = 1 ships, via h_alpha=None).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as _spec

from . import quad
from .model import ModelParams, Regime, classify_regime
from .quad import AsymptoticPrediction, QuadratureConfig

__all__ = [
    "KNOWN_H",
    "lookup_h",
    "predict",
    "regime_sweep",
    "SweepRow",
]

# Exactly known Pickands constants, keyed by alpha.
KNOWN_H = {1.0: 1.0}


def lookup_h(alpha: float, h_alpha: float | None) -> float:
    """Resolve the Pickands constant: explicit value or known table."""
    if h_alpha is not None:
        if not (h_alpha > 0):
            raise ValueError(f"h_alpha must be positive, got {h_alpha}")
        return h_alpha
    if alpha in KNOWN_H:
        return KNOWN_H[alpha]
    raise ValueError(
        f"no known Pickands constant for alpha={alpha}; "
        "estimate one with pickands.pickands_constant and pass it explicitly"
    )


def _log_prefactor(beta: float, a: float) -> float:
    return 2.0 * (beta - 2.0 * a) * float(_spec.gamma(1.0 / a)) / (a * a * beta)


def predict(
    p: ModelParams,
    h_alpha: float | None = None,
    cfg: QuadratureConfig = quad.DEFAULT_CONFIG,
) -> AsymptoticPrediction:
    """Leading-order form of p(u) = P(sup(X - c1 t1 - c2 t2) > u).

    Without a trend the side constant is G_beta and the critical constant
    K_beta.  A nonzero trend is stated for beta = 2 only: a fixed linear
    trend and the quadratic variance loss act on the same u^(-1) scale
    there, so the trend replaces them by L(c1), L(c2) and K(c1, c2) without
    changing powers.  Trended params with other beta are rejected.
    """
    b = p.beta
    trended = (p.c1, p.c2) != (0.0, 0.0)
    if trended and b != 2.0:
        raise ValueError(f"trend predictions require beta = 2 exactly, got beta={b}")
    h = lookup_h(p.alpha, h_alpha)
    regime = classify_regime(p)
    if regime is Regime.LOG_PRODUCT:
        return AsymptoticPrediction(
            h * h * _log_prefactor(b, p.a), 4.0 / p.alpha - 2.0 / p.a, 1
        )
    if regime is Regime.CRITICAL_PRODUCT:
        k = quad.trend_k(p.c1, p.c2, cfg) if trended else quad.k_beta(b, cfg)
        return AsymptoticPrediction(h * h * k, 4.0 / p.alpha - 4.0 / b, 0)
    if trended:
        s1, s2 = quad.trend_l(p.c1, cfg), quad.trend_l(p.c2, cfg)
    else:
        s1 = s2 = quad.g_beta(b)
    if regime is Regime.SIDE_DOMINATED:
        return AsymptoticPrediction(h * (s1 + s2), 2.0 / p.alpha - 2.0 / b, 0)
    return AsymptoticPrediction(h * h * s1 * s2, 4.0 / p.alpha - 4.0 / b, 0)


@dataclass(frozen=True)
class SweepRow:
    """One row of the regime-transition sweep."""

    a: float
    regime: Regime
    u_power: float
    log_power: int
    prefactor: float
    value_at_u: float


def regime_sweep(
    alpha: float,
    beta: float,
    a_values: list[float],
    u: float,
    h_alpha: float | None = None,
    T: float = 1.0,
    cfg: QuadratureConfig = quad.DEFAULT_CONFIG,
) -> list[SweepRow]:
    """Prediction structure across a range of product exponents.

    The u-power is continuous at a = a0 (where the side and log orders
    coincide: 4/alpha - 2/a0 = 2/alpha - 2/beta) and at a = beta/2 (where
    the log prefactor vanishes and only the log factor switches off); the
    emitted table makes that structure visible.
    """
    rows = []
    for a in a_values:
        p = ModelParams(alpha=alpha, beta=beta, a=a, T=T)
        pred = predict(p, h_alpha, cfg)
        rows.append(
            SweepRow(
                a=a,
                regime=classify_regime(p),
                u_power=pred.u_power,
                log_power=pred.log_power,
                prefactor=pred.prefactor,
                value_at_u=pred.evaluate(u) if u > 1 else math.nan,
            )
        )
    return rows
