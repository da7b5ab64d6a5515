"""Monte Carlo estimation of the Pickands functional and constant.

The finite-horizon functional is

    H_alpha(S) = E exp( sup_{t in [0,S]} ( sqrt(2) B_alpha(t) - t^alpha ) ),

where B_alpha is fractional Brownian motion normalized so that
Var(B_alpha(t) - B_alpha(s)) = |t - s|^alpha (Hurst index alpha/2).  The
Pickands constant is the per-unit-length limit H_alpha = lim H_alpha(S)/S.

H_alpha(S) grows like H_alpha * S + O(1), so the estimator of the constant
is the slope (H(S2) - H(S1))/(S2 - S1) across the top two rungs of an
S-ladder, which cancels the O(1) boundary term that makes the naive ratio
H(S)/S converge slowly.  All rungs are read off the same simulated paths
(prefix maxima), so rung estimates share paths and the slope is a paired
difference with far smaller variance than independent rungs would give.

Sampling of the paths is exact:

 * "cholesky":     dense factorization of the fBm covariance, any alpha
 * "brownian":     alpha = 1 only; independent Gaussian increments
 * "davies-harte": circulant embedding of the increments, O(n log n); exact
                   whenever the embedding eigenvalues are nonnegative, which
                   holds for fractional Gaussian noise with alpha < 2

A caveat worth knowing: exp(sup ...) has a heavy right tail whose variance
grows like exp(S^alpha), so pushing the ladder to large S buys bias
reduction at an exponentially growing replicate cost; by S = 8 (alpha = 1)
a few-hundred-thousand-replicate run is dominated by its single largest
path and the slope swings by several tenths between seeds.  The default
ladder therefore tops out at S = 4, where the slope estimator resolves the
constant to a couple of percent at a few * 10^5 replicates for alpha
around 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .factorization import chol_with_jitter
from .streams import DEFAULT_BATCH, batch_generator, run_batches

__all__ = [
    "PickandsEstimate",
    "ExtrapolationProtocol",
    "pickands_finite",
    "pickands_constant",
]

_SAMPLERS = ("cholesky", "brownian", "davies-harte")
MAX_POINTS = 200_000  # largest path grid an ExtrapolationProtocol may ask for
# largest total n_points * n_replicates an ExtrapolationProtocol may ask for,
# about five minutes of sampling at the cost below
MAX_PATH_POINTS = 10 ** 10
_NS_PER_PATH_POINT = 29.0  # Brownian paths, one core of a 2-vCPU Xeon host


# ---------------------------------------------------------------------------
# Batch path samplers (each returns an (n_paths, n_points) array)
# ---------------------------------------------------------------------------


def _dh_eigenvalues(alpha: float, n_incr: int) -> np.ndarray:
    """Circulant-embedding eigenvalues for unit-spacing fGn."""
    hurst2 = alpha  # 2H
    k = np.arange(n_incr, dtype=float)
    rho = 0.5 * ((k + 1.0) ** hurst2 + np.abs(k - 1.0) ** hurst2) - k ** hurst2
    c = np.concatenate([rho, [0.0], rho[1:][::-1]])
    lam = np.fft.fft(c).real
    if lam.min() < -1e-8 * max(1.0, lam.max()):
        raise ValueError(
            f"circulant embedding not nonnegative definite for alpha={alpha} "
            f"(min eigenvalue {lam.min():.3e}); use the cholesky sampler"
        )
    return np.clip(lam, 0.0, None)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")


def _resolve_sampler(sampler: str, alpha: float, n_points: int) -> str:
    if sampler != "auto":
        if sampler not in _SAMPLERS:
            raise ValueError(f"unknown sampler {sampler!r}; expected 'auto' or one of {_SAMPLERS}")
        return sampler
    if alpha == 1.0:
        return "brownian"
    if alpha >= 2.0 or n_points <= 1025:
        return "cholesky"
    return "davies-harte"


class _PathSampler:
    """Exact fBm paths on the uniform grid 0 = t_0 < t_1 < ... < t_{n-1} = S.

    B(0) = 0 holds exactly in every sample.  The cholesky method factors the
    covariance of the n-1 strictly positive times densely (`factor`, with
    the diagonal `jitter` it needed); the other methods have no factor.
    """

    def __init__(self, alpha: float, horizon: float, n_points: int, sampler: str = "auto"):
        _check_alpha(alpha)
        if not (horizon > 0):
            raise ValueError(f"horizon must be positive, got {horizon}")
        if n_points < 2:
            raise ValueError(f"need at least 2 grid points, got {n_points}")
        self.alpha = float(alpha)
        self.horizon = float(horizon)
        self.n_points = int(n_points)
        self.method = _resolve_sampler(sampler, alpha, n_points)
        if self.method == "brownian" and alpha != 1.0:
            raise ValueError("brownian sampler is exact only for alpha = 1")
        self.factor = self.jitter = self._lam = None
        if self.method == "cholesky":
            t = np.linspace(0.0, self.horizon, self.n_points)[1:]
            gram = 0.5 * (
                t[:, None] ** self.alpha
                + t[None, :] ** self.alpha
                - np.abs(t[:, None] - t[None, :]) ** self.alpha
            )
            self.factor, self.jitter = chol_with_jitter(gram, 1e-10)
        elif self.method == "davies-harte":
            self._lam = _dh_eigenvalues(self.alpha, self.n_points - 1)

    def sample(self, rng: np.random.Generator, n_paths: int) -> np.ndarray:
        """(n_paths, n_points) paths, each starting at B(0) = 0."""
        n_incr = self.n_points - 1
        h = self.horizon / n_incr
        out = np.empty((n_paths, self.n_points))
        out[:, 0] = 0.0
        if self.method == "cholesky":
            out[:, 1:] = (self.factor @ rng.standard_normal((n_incr, n_paths))).T
            return out
        if self.method == "brownian":
            # alpha = 1 is Brownian motion: increments are iid N(0, h).
            incr = rng.standard_normal((n_paths, n_incr))
            incr *= math.sqrt(h)
        else:
            m = 2 * n_incr
            raw = rng.standard_normal((n_paths, m))
            Z = np.empty((n_paths, m), dtype=complex)
            Z[:, 0] = raw[:, 0]
            Z[:, n_incr] = raw[:, 1]
            Z[:, 1:n_incr] = (raw[:, 2::2] + 1j * raw[:, 3::2]) / math.sqrt(2.0)
            Z[:, n_incr + 1 :] = np.conj(Z[:, 1:n_incr][:, ::-1])
            incr = np.fft.ifft(np.sqrt(self._lam) * Z, axis=1).real[:, :n_incr] * math.sqrt(m)
            incr *= h ** (self.alpha / 2.0)
        np.cumsum(incr, axis=1, out=out[:, 1:])
        return out

    def describe(self) -> str:
        h = self.horizon / (self.n_points - 1)
        return (
            f"uniform[0,{self.horizon:g}] h={h:g} ({self.n_points} pts), "
            f"sampler={self.method}"
        )


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PickandsEstimate:
    """A Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_err: float
    n_replicates: int
    grid: str
    seed: int
    naive: float | None = None
    naive_std_err: float | None = None
    rung_values: tuple[float, ...] = ()
    rung_std_errs: tuple[float, ...] = ()
    rungs: tuple[float, ...] = ()
    slope_naive_consistent: bool = True


@dataclass(frozen=True)
class ExtrapolationProtocol:
    """How pickands_constant discretizes and extrapolates.

    s_ladder       : increasing horizons; the slope uses the top two rungs
    spacing_factor : grid spacing h satisfies h^(alpha/2) <= spacing_factor
    n_replicates   : Monte Carlo paths (all rungs share each path)
    sampler        : "auto" | "cholesky" | "brownian" | "davies-harte"
    batch_size     : paths per Monte Carlo batch

    It is also the `pickands:` section of an experiment config.  Grids of
    more than MAX_POINTS points, and runs of more than MAX_PATH_POINTS path
    points in all, are refused before anything is allocated.
    """

    s_ladder: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    spacing_factor: float = 0.05
    n_replicates: int = 400_000
    sampler: str = "auto"
    batch_size: int = DEFAULT_BATCH

    def __post_init__(self) -> None:
        if len(self.s_ladder) < 2 or any(
            b <= a for a, b in zip(self.s_ladder, self.s_ladder[1:])
        ):
            raise ValueError("s_ladder must be strictly increasing with >= 2 rungs")
        if self.s_ladder[0] <= 0:
            raise ValueError("s_ladder entries must be positive")
        if not (0 < self.spacing_factor < 1):
            raise ValueError("spacing_factor must be in (0, 1)")
        if self.n_replicates < 2:
            raise ValueError("need at least 2 replicates")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")

    def grid_for(self, alpha: float) -> tuple[int, list[int]]:
        """(n_points, rung indices) with every rung exactly on the grid."""
        _check_alpha(alpha)
        s_max = self.s_ladder[-1]
        h_target = self.spacing_factor ** (2.0 / alpha)
        n_incr = max(int(math.ceil(s_max / h_target)), len(self.s_ladder))
        mult = 1
        for mult in range(1, 4097):
            if all(
                abs(s * mult / s_max - round(s * mult / s_max)) < 1e-9 for s in self.s_ladder
            ):
                break
        n_incr = mult * int(math.ceil(n_incr / mult))
        if n_incr + 1 > MAX_POINTS:
            raise ValueError(
                f"protocol needs {n_incr + 1} grid points for alpha={alpha} "
                f"(> MAX_POINTS={MAX_POINTS}); supply a coarser protocol"
            )
        path_points = (n_incr + 1) * self.n_replicates
        if path_points > MAX_PATH_POINTS:
            minutes = path_points * _NS_PER_PATH_POINT * 1e-9 / 60.0
            raise ValueError(
                f"protocol needs {n_incr + 1} grid points x {self.n_replicates} paths "
                f"= {path_points:.3g} path points for alpha={alpha} "
                f"(> MAX_PATH_POINTS={MAX_PATH_POINTS:.0e}), about {minutes:.0f} min "
                f"at ~{_NS_PER_PATH_POINT:g} ns per path point; supply a coarser "
                f"protocol or fewer replicates"
            )
        idx = [int(round(s * n_incr / s_max)) for s in self.s_ladder]
        return n_incr + 1, idx


DEFAULT_PROTOCOL = ExtrapolationProtocol()


def _mean_se(s1: float, s2: float, n: int) -> tuple[float, float]:
    m = float(s1) / n
    v = max(float(s2) / n - m * m, 0.0)
    return m, math.sqrt(v / n)


def _ladder_sums(
    ps: _PathSampler,
    rungs: tuple[float, ...],
    rung_idx: list[int],
    n_replicates: int,
    seed: int,
    batch_size: int,
    workers: int,
) -> np.ndarray:
    """Sums over all paths of each per-path statistic, then of its square.

    The statistics are exp(max of sqrt(2) B(t) - t^alpha up to each rung),
    read off the prefix maxima of one path per replicate.  With two or more
    rungs, six more entries follow: the slope across the top two rungs, the
    naive ratio at the top rung and their difference, each with its square.
    """
    drift = np.linspace(0.0, ps.horizon, ps.n_points) ** ps.alpha
    k = len(rungs)
    width = 2 * k + 6 if k > 1 else 2

    def work(b: int, take: int) -> np.ndarray:
        # sqrt(2) B(t) - t^alpha and its prefix maxima, in the path array
        paths = ps.sample(batch_generator(seed, b), take)
        paths *= math.sqrt(2.0)
        paths -= drift
        np.maximum.accumulate(paths, axis=1, out=paths)
        vals = np.exp(paths[:, rung_idx])
        acc = np.empty(width)
        acc[:k] = vals.sum(axis=0)
        acc[k : 2 * k] = (vals * vals).sum(axis=0)
        if k > 1:
            slope_i = (vals[:, -1] - vals[:, -2]) / (rungs[-1] - rungs[-2])
            naive_i = vals[:, -1] / rungs[-1]
            cons_i = slope_i - naive_i
            acc[-6:] = (
                slope_i.sum(),
                (slope_i * slope_i).sum(),
                naive_i.sum(),
                (naive_i * naive_i).sum(),
                cons_i.sum(),
                (cons_i * cons_i).sum(),
            )
        return acc

    acc = np.zeros(width)
    for part in run_batches(work, n_replicates, batch_size, workers):
        acc += part
    return acc


def pickands_finite(
    alpha: float,
    S: float,
    n_points: int,
    n_replicates: int,
    seed: int,
    sampler: str = "auto",
    batch_size: int = DEFAULT_BATCH,
    workers: int = 1,
) -> PickandsEstimate:
    """Monte Carlo estimate of H_alpha(S) on an n_points uniform grid.

    The discrete maximum understates the continuous supremum, so the
    estimate carries a negative bias that shrinks as the grid refines.
    This is the one-rung case of the ladder behind `pickands_constant`.
    """
    ps = _PathSampler(alpha, S, n_points, sampler)
    acc = _ladder_sums(ps, (S,), [ps.n_points - 1], n_replicates, seed, batch_size, workers)
    value, std_err = _mean_se(acc[0], acc[1], n_replicates)
    return PickandsEstimate(
        value=value,
        std_err=std_err,
        n_replicates=n_replicates,
        grid=ps.describe(),
        seed=seed,
    )


def pickands_constant(
    alpha: float,
    protocol: ExtrapolationProtocol = DEFAULT_PROTOCOL,
    seed: int = 0,
    workers: int = 1,
) -> PickandsEstimate:
    """Slope estimator of the Pickands constant H_alpha.

    Simulates paths on the top-rung grid once per replicate, reads every
    rung's functional from prefix maxima of the same path, and returns the
    paired-difference slope across the top two rungs.  The naive ratio
    H(S_max)/S_max is reported alongside; a warning is raised when slope and
    naive disagree by more than 3 joint standard errors (the usual sign that
    S_max is still far from the limit).
    """
    n_points, rung_idx = protocol.grid_for(alpha)
    s_ladder = protocol.s_ladder
    s_max = s_ladder[-1]
    n = protocol.n_replicates
    k = len(s_ladder)
    ps = _PathSampler(alpha, s_max, n_points, protocol.sampler)
    acc = _ladder_sums(ps, s_ladder, rung_idx, n, seed, protocol.batch_size, workers)
    rung_means, rung_ses = zip(*(_mean_se(acc[i], acc[k + i], n) for i in range(k)))
    slope, slope_se = _mean_se(acc[-6], acc[-5], n)
    naive, naive_se = _mean_se(acc[-4], acc[-3], n)
    cons, cons_se = _mean_se(acc[-2], acc[-1], n)
    consistent = bool(abs(cons) <= 3.0 * cons_se) if cons_se > 0 else True
    if not consistent:
        warnings.warn(
            f"pickands_constant(alpha={alpha}): slope {slope:.4f} and naive "
            f"{naive:.4f} differ by more than 3 joint standard errors; "
            f"H({s_max})/{s_max} has not converged, prefer the slope",
            stacklevel=2,
        )
    return PickandsEstimate(
        value=slope,
        std_err=slope_se,
        n_replicates=n,
        grid=ps.describe(),
        seed=seed,
        naive=naive,
        naive_std_err=naive_se,
        rung_values=tuple(rung_means),
        rung_std_errs=tuple(rung_ses),
        rungs=tuple(s_ladder),
        slope_naive_consistent=consistent,
    )
