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

Each drawn path B gives two replicates, B and its mirror -B, which is fBm
too (the antithetic pairs of `streams`), so a replicate costs half a path.
The fBm covariance (t^alpha + s^alpha - |t - s|^alpha) / 2 is nonnegative,
so by Pitt's theorem exp(sup) of a path and of its mirror are nonpositively
correlated; every standard error is the paired one of
`streams.paired_mean_se`, which also holds for the slope, a difference of
two such functionals whose pair correlation has no sign.

A batch draws its paths in chunks of about `streams._BLOCK_BYTES` of
sampling work (cholesky: at least the factor's bytes), into buffers it
reuses, and keeps only each replicate's maximum on every rung segment, so
its memory grows with the number of replicates and rungs, not with the grid.
Every sampler draws path-major (path i takes the i-th run of normals of
the batch's stream), so the chunks together give the paths of one
whole-batch draw, up to the last bit of a cholesky GEMM row on grids where
BLAS blocks a short chunk's rows differently.

The path samplers:

 * "auto":         independent Gaussian increments at alpha = 1, the one
                   alpha where they are exact (the "brownian" method), and
                   "davies-harte" at every other alpha
 * "davies-harte": circulant embedding of the increments, O(n log n), with
                   rho(n) at the centre of the circulant row (Davies & Harte
                   1987; Wood & Chan 1994): exact for every alpha in (0, 2],
                   the line t Z at alpha = 2.  The drawn half spectrum goes
                   through one real inverse FFT
 * "cholesky":     dense factorization of the fBm covariance, any alpha: the
                   tests' reference; jittered, so approximate, at alpha = 2

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

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .factorization import chol_with_jitter
from .streams import (
    DEFAULT_BATCH,
    _refuse_over_budget,
    batch_generator,
    block_items,
    pair_moments,
    paired_mean_se,
    run_batches,
)

__all__ = [
    "PickandsEstimate",
    "ExtrapolationProtocol",
    "pickands_finite",
    "pickands_constant",
]

_SAMPLERS = ("auto", "cholesky", "davies-harte")
MAX_RUNG_MULTIPLE = 4096  # largest grid on which an s_ladder's rungs must all fall
# largest total n_points * n_replicates a Pickands estimate may ask for,
# about two and a half minutes of sampling at the cost below
MAX_PATH_POINTS = 10 ** 10
# Brownian paths, two replicates (a path and its mirror) to a drawn path,
# one core of a 2-vCPU Xeon host
_NS_PER_PATH_POINT = 14.5
# Peak bytes per path point of one `_PathSampler.sample` call (tracemalloc):
# the draws and the paths, and for davies-harte the half spectrum and its
# transform.  They size a chunk.
_SAMPLE_BYTES_PER_POINT = {"brownian": 16, "cholesky": 16, "davies-harte": 40}


# ---------------------------------------------------------------------------
# Path samplers (each returns a path-major (n_paths, n_points) array)
# ---------------------------------------------------------------------------


def _buffer(
    scratch: dict | None, key: str, shape: tuple[int, int], dtype: type = float
) -> np.ndarray:
    """A new array, or a view of the buffer `key` kept in `scratch`, grown as needed."""
    if scratch is None:
        return np.empty(shape, dtype)
    buf = scratch.get(key)
    if buf is None or len(buf) < shape[0]:
        buf = scratch[key] = np.empty(shape, dtype)
    return buf[: shape[0]]


def _dh_eigenvalues(alpha: float, n_incr: int) -> np.ndarray:
    """Half spectrum (bins 0 ... n_incr) of the circulant embedding of unit-spacing fGn: the
    row rho(0), ..., rho(n_incr), ..., rho(1) is nonnegative definite for alpha in (0, 2]."""
    k = np.arange(n_incr + 1, dtype=float)
    rho = 0.5 * ((k + 1.0) ** alpha + np.abs(k - 1.0) ** alpha) - k ** alpha
    lam = np.fft.rfft(np.concatenate([rho, rho[1:-1][::-1]])).real
    return np.clip(lam, 0.0, None)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")


def _check_sampler(sampler: str) -> None:
    if sampler not in _SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; expected one of {_SAMPLERS}")


class _PathSampler:
    """Exact fBm paths on the uniform grid 0 = t_0 < t_1 < ... < t_{n-1} = S.

    B(0) = 0 holds exactly in every sample.  The cholesky method factors the
    covariance of the n-1 strictly positive times densely (`factor`, with
    the diagonal `jitter` it needed); the other methods have no factor.
    Every method's batch loop draws its paths `chunk` at a time: the most,
    and at least one, whose `sample` working set (`path_bytes` each) fits in
    `streams._BLOCK_BYTES`, and for cholesky at least the paths that fit in
    the factor's bytes, so that each pass over the factor is one long GEMM.
    `run_batches` counts what the sampler holds, `held`, beside the batches; a
    set-up over the memory budget is refused unbuilt.
    """

    def __init__(self, alpha: float, horizon: float, n_points: int, sampler: str = "auto"):
        _check_alpha(alpha)
        if not (0 < horizon < math.inf):  # an infinite horizon makes nan paths
            raise ValueError(f"horizon must be positive and finite, got {horizon}")
        if n_points < 2:
            raise ValueError(f"need at least 2 grid points, got {n_points}")
        self.alpha = float(alpha)
        self.horizon = float(horizon)
        self.n_points = int(n_points)
        _check_sampler(sampler)
        self.method = sampler
        if sampler == "auto":  # the automatic choice of the module docstring
            self.method = "brownian" if alpha == 1.0 else "davies-harte"
        run = f"the {self.method} sampler at alpha={alpha} on {self.n_points} grid points"
        # The set-up peak (tracemalloc: the cholesky Gram build, three (n-1)^2
        # arrays; 48 B per point for the davies-harte spectrum, 16 for the
        # drift) is refused here, before it is built.
        gram_bytes = 24 * (self.n_points - 1) ** 2 if self.method == "cholesky" else 0
        peak = max(gram_bytes, (48 if self.method == "davies-harte" else 16) * self.n_points)
        _refuse_over_budget(f"set-up with {run}", peak, "use a coarser grid or another sampler")
        self.factor = self.jitter = self._root = None
        if self.method == "cholesky":
            t = np.linspace(0.0, self.horizon, self.n_points)[1:]
            gram = 0.5 * (
                t[:, None] ** self.alpha
                + t[None, :] ** self.alpha
                - np.abs(t[:, None] - t[None, :]) ** self.alpha
            )
            self.factor, self.jitter = chol_with_jitter(gram, 1e-10)
        elif self.method == "davies-harte":
            n_incr = self.n_points - 1
            scale = 2 * n_incr * (self.horizon / n_incr) ** self.alpha  # m h^alpha, m = 2 n_incr
            self._root = np.sqrt(scale * _dh_eigenvalues(self.alpha, n_incr))
            self._root[1:n_incr] /= math.sqrt(2.0)  # the complex bins
        self.drift = np.linspace(0.0, self.horizon, self.n_points) ** self.alpha  # t^alpha
        self.path_bytes = _SAMPLE_BYTES_PER_POINT[self.method] * self.n_points
        self.what = run
        # what a run holds beside its batches: the cholesky factor or the half spectrum
        held = self.factor if self.method == "cholesky" else self._root
        self.held = 0 if held is None else held.nbytes
        # a chunk reads the whole cholesky factor, so it holds at least as many paths as a
        # factor-sized buffer; the other methods hold less than one path's bytes
        self.chunk = max(block_items(self.path_bytes), self.held // self.path_bytes)
        self._scratch: dict[str, np.ndarray] | None = None

    def sample(self, rng: np.random.Generator, n_paths: int) -> np.ndarray:
        """(n_paths, n_points) paths, each starting at B(0) = 0.

        The draws are path-major: path i takes the i-th run of normals from
        `rng`, so drawing m paths and then n_paths - m more from one stream
        gives the rows of one n_paths draw.  The paths of a `with_scratch`
        copy are valid until its next call.
        """
        n_incr = self.n_points - 1
        out = _buffer(self._scratch, "out", (n_paths, self.n_points))
        out[:, 0] = 0.0
        if self.method == "cholesky":
            draw = rng.standard_normal(out=_buffer(self._scratch, "draw", (n_paths, n_incr)))
            np.matmul(draw, self.factor.T, out=out[:, 1:])
            return out
        if self.method == "brownian":
            # alpha = 1 is Brownian motion: increments are iid N(0, h).
            incr = rng.standard_normal(out=_buffer(self._scratch, "draw", (n_paths, n_incr)))
            incr *= math.sqrt(self.horizon / n_incr)
        else:
            # half spectrum of the draw: bin k is raw[2k] + i raw[2k+1], bin n_incr raw[1]
            spec = _buffer(self._scratch, "spec", (n_paths, n_incr + 1), complex)
            spec[:, :n_incr] = rng.standard_normal((n_paths, 2 * n_incr)).view(complex)
            spec[:, n_incr] = spec[:, 0].imag
            spec.imag[:, 0] = 0.0
            spec *= self._root
            incr = np.fft.irfft(spec, n=2 * n_incr, axis=1)[:, :n_incr]
        np.cumsum(incr, axis=1, out=out[:, 1:])
        return out

    def with_scratch(self) -> _PathSampler:
        """A copy whose `sample` writes into buffers it keeps and reuses, so a
        loop of calls allocates its working set once.  One per batch: the
        buffers are not shared between threads.  The buffers ride on a copy,
        not on an argument, because `sample(rng, n_paths)` is what
        `perfbench/tracing.py` wraps and counts path points from."""
        twin = copy.copy(self)
        twin._scratch = {}
        return twin

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
    n_replicates   : Monte Carlo replicates, drawn paths and their mirrors
                     (all rungs share each replicate)
    sampler        : "auto" | "cholesky" | "davies-harte"
    batch_size     : replicates per Monte Carlo batch

    It is also the `pickands:` section of an experiment config.  Ladders
    whose rungs share no grid of at most MAX_RUNG_MULTIPLE increments are
    refused when built, as is an unknown sampler name; a run is sized where
    its paths are drawn, as `pickands_finite` is (see `_ladder_sums`).
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
        if self.s_ladder[0] <= 0 or not all(map(math.isfinite, self.s_ladder)):
            raise ValueError(f"s_ladder entries must be positive and finite, got {self.s_ladder}")
        if not (0 < self.spacing_factor < 1):
            raise ValueError("spacing_factor must be in (0, 1)")
        if self.n_replicates < 2:
            raise ValueError("need at least 2 replicates")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        _check_sampler(self.sampler)
        self._grid_multiple()

    def _grid_multiple(self) -> int:
        """Fewest increments over [0, S_max] that put every rung on the grid."""
        s_max = self.s_ladder[-1]
        for mult in range(1, MAX_RUNG_MULTIPLE + 1):
            if all(abs(s * mult / s_max - round(s * mult / s_max)) < 1e-9 for s in self.s_ladder):
                return mult
        raise ValueError(
            f"s_ladder rungs share no grid of at most {MAX_RUNG_MULTIPLE} increments over "
            f"[0, {s_max}]; use rungs that are simple fractions of the top rung"
        )

    def grid_for(self, alpha: float) -> tuple[int, list[int]]:
        """(n_points, rung indices) with every rung exactly on the grid."""
        _check_alpha(alpha)
        s_max = self.s_ladder[-1]
        h_target = self.spacing_factor ** (2.0 / alpha)
        n_incr = max(int(math.ceil(s_max / h_target)), len(self.s_ladder))
        mult = self._grid_multiple()
        n_incr = mult * int(math.ceil(n_incr / mult))
        idx = [int(round(s * n_incr / s_max)) for s in self.s_ladder]
        return n_incr + 1, idx


def _ladder_sums(
    ps: _PathSampler,
    rungs: tuple[float, ...],
    rung_idx: list[int],
    n_replicates: int,
    seed: int,
    batch_size: int,
    workers: int,
) -> np.ndarray:
    """(3, m) `streams.pair_moments` of m per-replicate statistics, summed
    over the batches: read them with `streams.paired_mean_se`.

    Replicate 2i of a batch is its i-th path B, replicate 2i + 1 the mirror
    -B.  The table's first k columns are exp(max of sqrt(2) B(t) - t^alpha
    up to each rung), read off the prefix maxima of one replicate.  With
    two or more rungs three more follow: the slope across the top two
    rungs, the naive ratio at the top rung and their difference.  Fewer
    than two replicates, more than MAX_PATH_POINTS path points, or batches
    in flight over the memory budget are refused before any path.

    A batch draws its ceil(take / 2) paths from its one stream `ps.chunk`
    at a time, into buffers it reuses, and keeps only each replicate's
    maxima on the k rung segments, so it holds one chunk of paths plus its
    table, whatever the grid.  A chunk's segment maxima of
    sqrt(2) B - t^alpha are taken first; adding 2 t^alpha in place then
    gives sqrt(2) B + t^alpha, whose segment minima are the mirror's
    maxima negated, so the mirror takes no buffer.  The prefix maxima, exp
    and every sum are taken over the whole batch.
    """
    if n_replicates < 2:
        raise ValueError("need at least 2 replicates")
    path_points = ps.n_points * n_replicates
    if path_points > MAX_PATH_POINTS:
        minutes = path_points * _NS_PER_PATH_POINT * 1e-9 / 60.0
        raise ValueError(
            f"Pickands run needs {ps.n_points} grid points x {n_replicates} paths "
            f"= {path_points:.3g} path points for alpha={ps.alpha:g} "
            f"(> MAX_PATH_POINTS={MAX_PATH_POINTS:.0e}), about {minutes:.0f} min "
            f"at ~{_NS_PER_PATH_POINT:g} ns per path point; use a coarser grid or "
            f"fewer replicates"
        )
    k = len(rungs)
    # rung i's segment of a path runs from just past rung i-1 to rung i
    starts = [0] + [i + 1 for i in rung_idx[:-1]]
    twice_drift = 2.0 * ps.drift

    def work(b: int, take: int) -> np.ndarray:
        # sqrt(2) B(t) -+ t^alpha chunk by chunk, and its maximum (minimum) on each
        # rung's segment; then their running maximum: the prefix maxima at the rungs
        rng = batch_generator(seed, b)
        chunks = ps.with_scratch()
        pairs = np.empty(((take + 1) // 2, 2, k))  # [path, mirror] segment maxima
        for c0 in range(0, len(pairs), ps.chunk):
            paths = chunks.sample(rng, min(ps.chunk, len(pairs) - c0))
            c1 = c0 + len(paths)
            paths *= math.sqrt(2.0)
            paths -= ps.drift
            np.maximum.reduceat(paths[:, : rung_idx[-1] + 1], starts, axis=1, out=pairs[c0:c1, 0])
            paths += twice_drift
            np.minimum.reduceat(paths[:, : rung_idx[-1] + 1], starts, axis=1, out=pairs[c0:c1, 1])
        del chunks, paths  # before the table below
        np.negative(pairs[:, 1], out=pairs[:, 1])
        seg = pairs.reshape(-1, k)[:take]  # an odd batch drops its last mirror
        # column-major, so each column sums pairwise as one contiguous vector
        table = np.empty((take, k + 3 if k > 1 else 1), order="F")
        vals = np.exp(np.maximum.accumulate(seg, axis=1, out=seg), out=table[:, :k])
        if k > 1:
            table[:, k] = (vals[:, -1] - vals[:, -2]) / (rungs[-1] - rungs[-2])
            table[:, k + 1] = vals[:, -1] / rungs[-1]
            table[:, k + 2] = table[:, k] - table[:, k + 1]
        return pair_moments(table)

    # a batch holds one chunk of paths, and per replicate the segment maxima,
    # the table and its square (tracemalloc: at most 3k + 6 floats)
    take = min(batch_size, n_replicates)
    parts = run_batches(
        work, n_replicates, batch_size, workers, what=ps.what, item="paths", held=ps.held,
        batch_bytes=min(ps.chunk, (take + 1) // 2) * ps.path_bytes + 8 * (3 * k + 6) * take,
    )
    return sum(parts)


def pickands_finite(
    alpha: float,
    S: float,
    n_points: int,
    n_replicates: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH,
    workers: int = 1,
) -> PickandsEstimate:
    """Monte Carlo estimate of H_alpha(S) on an n_points uniform grid.

    The discrete maximum understates the continuous supremum, so the
    estimate carries a negative bias that shrinks as the grid refines.
    Its replicates are antithetic pairs of paths, and its standard error is
    the paired one.  This is the one-rung case of the ladder behind
    `pickands_constant`, at the automatic sampler choice, and is sized and
    refused as that is.
    """
    ps = _PathSampler(alpha, S, n_points)
    acc = _ladder_sums(ps, (S,), [ps.n_points - 1], n_replicates, seed, batch_size, workers)
    mean, se = paired_mean_se(acc, n_replicates, batch_size)
    return PickandsEstimate(
        value=float(mean[0]),
        std_err=float(se[0]),
        n_replicates=n_replicates,
        grid=ps.describe(),
        seed=seed,
    )


def pickands_constant(
    alpha: float,
    protocol: ExtrapolationProtocol = ExtrapolationProtocol(),
    seed: int = 0,
    workers: int = 1,
) -> PickandsEstimate:
    """Slope estimator of the Pickands constant H_alpha.

    Simulates paths on the top-rung grid, one per antithetic pair of
    replicates, reads every rung's functional from prefix maxima of the
    same replicate, and returns the paired-difference slope across the top
    two rungs.  The naive ratio H(S_max)/S_max is reported alongside; a
    warning is raised when slope and naive disagree by more than 3 joint
    standard errors (the usual sign that S_max is still far from the limit).
    """
    n_points, rung_idx = protocol.grid_for(alpha)
    s_ladder = protocol.s_ladder
    s_max = s_ladder[-1]
    n = protocol.n_replicates
    k = len(s_ladder)
    ps = _PathSampler(alpha, s_max, n_points, protocol.sampler)
    acc = _ladder_sums(ps, s_ladder, rung_idx, n, seed, protocol.batch_size, workers)
    mean, se = (x.tolist() for x in paired_mean_se(acc, n, protocol.batch_size))
    (slope, naive, cons), (slope_se, naive_se, cons_se) = mean[k:], se[k:]
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
        rung_values=tuple(mean[:k]),
        rung_std_errs=tuple(se[:k]),
        rungs=tuple(s_ladder),
        slope_naive_consistent=consistent,
    )
