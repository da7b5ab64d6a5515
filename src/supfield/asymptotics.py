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
moves only bounded terms and leaves the prefactor unchanged.  The three
product regimes are H^2 u^(4/alpha) Psi(u) times the leading term of the
corner integral, so their constants are `quad.i_gamma_asymptote` at
gamma = 1.

H is an input here, not computed inline: pass a `pickands` estimate or use
the known-values table (only H = 1 at alpha = 1 ships, via h_alpha=None).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        if not (0 < h_alpha < math.inf):
            raise ValueError(f"h_alpha must be positive and finite, got {h_alpha}")
        return h_alpha
    if alpha in KNOWN_H:
        return KNOWN_H[alpha]
    raise ValueError(
        f"no known Pickands constant for alpha={alpha}; "
        "estimate one with pickands.pickands_constant and pass it explicitly"
    )


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
    changing powers; `ModelParams` admits a trend only there.  The product
    regimes scale the asymptote of the corner integral (gamma = 1).  Only
    K_beta, K(c1, c2) and L(c) integrate, importing scipy.integrate first.
    """
    h = lookup_h(p.alpha, h_alpha)
    if classify_regime(p) is Regime.SIDE_DOMINATED:
        s1, s2 = quad.side_constants(p.beta, p.c1, p.c2, cfg)
        return AsymptoticPrediction(h * (s1 + s2), 2.0 / p.alpha - 2.0 / p.beta, 0)
    corner = quad.IntegralSpec(1.0, p.beta, p.a, p.T, 1.0, p.c1, p.c2)
    asym = quad.i_gamma_asymptote(corner, cfg)
    return AsymptoticPrediction(
        h * h * asym.prefactor, 4.0 / p.alpha + asym.u_power, asym.log_power
    )


@dataclass(frozen=True)
class SweepRow:
    """One row of the regime-transition sweep."""

    a: float
    regime: Regime
    u_power: float
    log_power: int
    prefactor: float


def regime_sweep(
    params: ModelParams,
    a_values: list[float],
    h_alpha: float | None = None,
    cfg: QuadratureConfig = quad.DEFAULT_CONFIG,
) -> list[SweepRow]:
    """Prediction structure of `params` across a range of product exponents.

    The u-power is continuous at a = a0 (where the side and log orders
    coincide: 4/alpha - 2/a0 = 2/alpha - 2/beta) and at a = beta/2 (where
    the log prefactor vanishes and only the log factor switches off); the
    emitted table makes that structure visible.  The rows hold the form of
    each prediction, not its value at any level u.
    """
    rows = []
    for a in a_values:
        p = replace(params, a=a)
        pred = predict(p, h_alpha, cfg)
        rows.append(SweepRow(a, classify_regime(p), pred.u_power, pred.log_power, pred.prefactor))
    return rows
