"""Parametric Gaussian field family on the square [0,T]^2.

The field is centered with unit variance at the origin, standard deviation
decaying away from the origin through the product-form loss

    V(t) = t1^beta + t2^beta + (t1*t2)^a,      sigma(t) = exp(-V(t)),

and stationary correlation

    r(t, s) = exp(-|t1-s1|^alpha - |t2-s2|^alpha).

Both kernels are of Schoenberg type for alpha in (0, 2], so the covariance
sigma(t)*sigma(s)*r(t,s) is positive semidefinite, and the pair satisfies
the local expansions 1 - sigma ~ V and 1 - r ~ |dt1|^alpha + |dt2|^alpha
exactly in the small-argument limit.

The high-level behaviour of the supremum splits into four regimes driven by
the product exponent `a` relative to the threshold a0 = alpha*beta/(alpha+beta)
and the half-exponent beta/2; `classify_regime` computes the split.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "ModelParams",
    "Point2",
    "Regime",
    "variance_loss",
    "variance_loss_at",
    "sigma",
    "correlation",
    "covariance",
    "classify_regime",
    "correlation_scale",
]

# Relative tolerance for regime boundary comparisons.  `a` is user-supplied and
# intended-critical inputs like a = beta/2 must not be misclassified by the
# floating-point representation of beta/2.
BOUNDARY_RTOL = 1e-12


class Regime(enum.Enum):
    """Which of the four supremum-asymptotics regimes applies."""

    SIDE_DOMINATED = "SideDominated"
    LOG_PRODUCT = "LogProduct"
    CRITICAL_PRODUCT = "CriticalProduct"
    CLASSICAL = "Classical"

    def __str__(self) -> str:
        return self.value


class Point2(NamedTuple):
    """A location (t1, t2) in the square."""

    t1: float
    t2: float


@dataclass(frozen=True)
class ModelParams:
    """Defines one member of the field family plus an optional linear trend.

    alpha : correlation exponent, in (0, 2]
    beta  : side variance-loss exponent, > alpha
    a     : product variance-loss exponent, > 0
    T     : horizon of the square [0, T]^2
    c1,c2 : nonnegative linear trend slopes (0 means no trend); a nonzero
            slope requires beta = 2, the only case the trend constants cover
    """

    alpha: float
    beta: float
    a: float
    T: float = 1.0
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not (self.beta > self.alpha):
            raise ValueError(f"beta must exceed alpha, got beta={self.beta} alpha={self.alpha}")
        if not (self.a > 0.0):
            raise ValueError(f"a must be positive, got {self.a}")
        if not (self.T > 0.0):
            raise ValueError(f"T must be positive, got {self.T}")
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError(f"trend slopes must be nonnegative, got ({self.c1}, {self.c2})")
        if (self.c1, self.c2) != (0.0, 0.0) and self.beta != 2.0:
            raise ValueError(f"a nonzero trend requires beta = 2, got beta={self.beta}")
        for name in ("alpha", "beta", "a", "T", "c1", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def a0(self) -> float:
        """Side/log threshold alpha*beta/(alpha+beta)."""
        return self.alpha * self.beta / (self.alpha + self.beta)

    def check_point(self, t: Point2) -> Point2:
        """Reject (never clamp) locations outside [0, T]^2."""
        t = Point2(float(t[0]), float(t[1]))
        if not (math.isfinite(t.t1) and math.isfinite(t.t2)):
            raise ValueError(f"point has non-finite coordinates: {t}")
        if not (0.0 <= t.t1 <= self.T and 0.0 <= t.t2 <= self.T):
            raise ValueError(f"point {t} outside [0, {self.T}]^2")
        return t


def variance_loss_at(p: ModelParams, t1, t2):
    """V(t) = t1^beta + t2^beta + (t1*t2)^a, elementwise on floats or arrays.

    Unchecked: callers keep the coordinates inside [0, T]^2.
    """
    return t1 ** p.beta + t2 ** p.beta + (t1 * t2) ** p.a


def variance_loss(p: ModelParams, t: Point2) -> float:
    """V(t) at one checked location.

    Nonnegative, zero only at the origin, and coordinatewise nondecreasing
    on the positive quadrant.
    """
    t = p.check_point(t)
    return variance_loss_at(p, t.t1, t.t2)


def sigma(p: ModelParams, t: Point2) -> float:
    """Standard deviation exp(-V(t)); equals 1 exactly at the origin."""
    return math.exp(-variance_loss(p, t))


def correlation(p: ModelParams, t: Point2, s: Point2) -> float:
    """r(t, s) = exp(-|t1-s1|^alpha - |t2-s2|^alpha); 1 iff t == s."""
    t = p.check_point(t)
    s = p.check_point(s)
    return math.exp(-abs(t.t1 - s.t1) ** p.alpha - abs(t.t2 - s.t2) ** p.alpha)


def covariance(p: ModelParams, t: Point2, s: Point2) -> float:
    """E[X(t) X(s)] = sigma(t) * sigma(s) * r(t, s)."""
    return sigma(p, t) * sigma(p, s) * correlation(p, t, s)


def _boundary_cmp(a: float, threshold: float) -> int:
    """-1 / 0 / +1 comparison of a against threshold at BOUNDARY_RTOL."""
    if math.isclose(a, threshold, rel_tol=BOUNDARY_RTOL, abs_tol=0.0):
        return 0
    return -1 if a < threshold else 1


def classify_regime(p: ModelParams) -> Regime:
    """Regime of the supremum asymptotics for these parameters.

    a < a0 is side-dominated; a0 <= a < beta/2 carries a log factor
    (the boundary a = a0 belongs to the log regime); a = beta/2 is the
    critical product case; a > beta/2 is classical.  Boundary comparisons
    use relative tolerance BOUNDARY_RTOL.
    """
    half_beta = p.beta / 2.0
    if _boundary_cmp(p.a, half_beta) == 0:
        return Regime.CRITICAL_PRODUCT
    if p.a > half_beta:
        return Regime.CLASSICAL
    if _boundary_cmp(p.a, p.a0) >= 0:
        return Regime.LOG_PRODUCT
    return Regime.SIDE_DOMINATED


def correlation_scale(p: ModelParams, u: float) -> float:
    """Correlation mesh q_u = u^(-2/alpha) at level u."""
    if not math.isfinite(u):
        raise ValueError(f"level u must be finite, got {u}")
    if not (u > 0.0):
        raise ValueError(f"level u must be positive, got {u}")
    return u ** (-2.0 / p.alpha)
