"""Exact lattice simulation of the field and excursion Monte Carlo.

`LatticeField` samples the field exactly on a tensor lattice xs x ys.  The
correlation factorizes, r = r1(x, x') * r2(y, y'), so the correlation Gram
is the Kronecker product R1 (x) R2 and a field sample is

    X = sigma .* (L1 G L2'),   G iid standard normal,

with L1, L2 the small per-axis Cholesky factors.  This is the Gaussian law
of the dense lattice covariance (no truncation, no approximation) at a
per-draw cost of two thin matrix products, which is what makes
10^6-sample runs affordable.  Each draw gives two samples, X and its
mirror -X, which has the same law (the antithetic pairs of `streams`), so a
sample costs half a draw.  A batch runs over cache-sized blocks of draws:
each block draws its own normals, then the products and the sigma scaling,
and is reduced to the maxima of X - trend and of -X - trend, in two
buffers the batch reuses, so no array of a batch grows with its size but
the maxima.

Monte Carlo estimates are issued in fixed Philox-indexed batches (see
`streams`), so a run is a pure function of (seed, n_samples, batch size)
regardless of worker count.  The correlation exp(-|d|^alpha) is
nonnegative, so an exceedance of a draw and of its mirror are nonpositively
correlated (Pitt's theorem); the standard error of p_hat is the paired one
of `streams.paired_mean_se`, which counts that correlation.  The lattice
maximum understates the continuum supremum; estimates inherit that
negative bias, which shrinks as the lattice refines, and every downstream
assertion is therefore a ratio-trend or band statement rather than an
equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics, pickands, quad
from .factorization import chol_with_jitter
from .model import ModelParams, Point2, correlation_scale, variance_loss_at
from .streams import (
    DEFAULT_BATCH,
    _refuse_over_budget,
    batch_generator,
    batch_sizes,
    block_items,
    check_run,
    pair_moments,
    paired_mean_se,
    run_batches,
)

__all__ = [
    "LatticeField",
    "MCEstimate",
    "BlockSpec",
    "BlockResult",
    "RatioRow",
    "build_lattice",
    "side_emphasis_axis",
    "mc_excursion",
    "excursion_maxima",
    "mc_block_exceedance",
    "ratio_harness",
    "ratio_to_prediction",
]

# Defaults of `mc_block_exceedance` and of the config's `blocks:` section:
# lattice points per block axis, and replicates of each H(S) factor.
BLOCK_N_GRID = 32
BLOCK_H_REPLICATES = 200_000
# Column alignment of a block's normal draw (a multiple of the BLAS
# micro-kernel width).
_BLOCK_ALIGN = 16


def _axis_correlation(params: ModelParams, coords: np.ndarray) -> np.ndarray:
    d = np.abs(coords[:, None] - coords[None, :])
    return np.exp(-(d ** params.alpha))


class LatticeField:
    """Kronecker-factorized field on a tensor lattice xs x ys."""

    def __init__(self, params: ModelParams, xs: np.ndarray, ys: np.ndarray):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or len(xs) < 1 or len(ys) < 1:
            raise ValueError("xs and ys must be nonempty 1-D coordinate arrays")
        for arr, name in ((xs, "xs"), (ys, "ys")):
            if np.any(arr < 0) or np.any(arr > params.T) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must lie within [0, T]")
            if np.any(np.diff(arr) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
        self.params = params
        self.xs = xs
        self.ys = ys
        n1, n2 = len(xs), len(ys)
        # refused before it is built, at a bound on the set-up peak (tracemalloc): an
        # axis correlation takes 24 B per entry as it is factored, sigma at most 24 B
        # per point as it is built off the axes and 8 once built; 40 leaves a margin
        setup = 8 * (3 * max(n1, n2) ** 2 + 5 * n1 * n2)
        _refuse_over_budget(f"{self.describe()} set-up", setup, "use a coarser grid")
        self.l1, self.jitter1 = chol_with_jitter(_axis_correlation(params, xs), 1e-9)
        self.l2, self.jitter2 = chol_with_jitter(_axis_correlation(params, ys), 1e-9)
        self.sigma_grid = np.exp(-variance_loss_at(params, xs[:, None], ys[None, :]))
        self.held = self.l1.nbytes + self.l2.nbytes + self.sigma_grid.nbytes
        # draws per block: two buffers of 8 B per cell, in whole `_BLOCK_ALIGN` columns
        self.per_block = block_items(16 * n1 * n2, _BLOCK_ALIGN // math.gcd(n2, _BLOCK_ALIGN))

    def batch_bytes(self, take: int) -> int:
        """What a batch of `take` samples, ceil(take / 2) draws, holds: two
        buffers of 8 B per cell for its largest block of draws (the
        remainder joins the last one, so below two blocks) and 8 B per
        maximum of a draw or its mirror."""
        draws = (take + 1) // 2
        return 16 * len(self.xs) * len(self.ys) * min(draws, 2 * self.per_block - 1) + 16 * draws

    def _blocks(self, rng: np.random.Generator, n: int):
        """Yield (first draw, field block) for n field draws, block by block.

        Blocks hold `per_block` draws each, the remainder joining the
        last one.  Each block draws its normals from `rng` when it is
        computed, into a buffer laid out (n1, k * n2), so that draw s of
        the block owns columns s n2 ... (s + 1) n2 - 1: the stream fills the
        blocks in order, and the block partition (lattice shape, n,
        `streams._BLOCK_BYTES`, `_BLOCK_ALIGN`) decides which normals each
        draw gets.  Then come two BLAS products, the second written back
        over the draw, and the sigma scaling in place; the two buffers,
        about `streams._BLOCK_BYTES` together, are allocated once per
        batch.  A block is an (n1, k, n2) view of a reused buffer, valid until
        the next one is yielded.
        """
        n1, n2 = len(self.xs), len(self.ys)
        bounds = [i * self.per_block for i in range(max(1, n // self.per_block))] + [n]
        size = n1 * (n - bounds[-2]) * n2
        g_buf, a_buf = np.empty(size), np.empty(size)
        sigma = self.sigma_grid[:, None, :]
        for s0, s1 in zip(bounds[:-1], bounds[1:]):
            k = s1 - s0
            g = g_buf[: n1 * k * n2].reshape(n1, k * n2)
            a = a_buf[: n1 * k * n2].reshape(n1, k * n2)
            rng.standard_normal(out=g)
            np.matmul(self.l1, g, out=a)
            np.matmul(a.reshape(n1 * k, n2), self.l2.T, out=g.reshape(n1 * k, n2))
            block = g.reshape(n1, k, n2)
            block *= sigma
            yield s0, block

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(len(xs), n, len(ys)) exact field draws (no mirrors)."""
        out = np.empty((len(self.xs), n, len(self.ys)))
        for s0, block in self._blocks(rng, n):
            out[:, s0 : s0 + block.shape[1]] = block
        return out

    def maxima_batch(self, rng: np.random.Generator, n: int, trend: tuple[float, float]) -> np.ndarray:
        """Per-sample lattice maxima of the field minus the trend s = c1 x + c2 y,
        in antithetic pairs: sample 2i is max(X - s) of draw i and sample
        2i + 1 its mirror's, max(-X - s) = -min(X + s).  n samples take
        ceil(n / 2) draws; an odd n drops the last mirror.

        Each block is reduced rows first, one pass of `np.maximum.reduce`
        (and of `np.minimum.reduce`) over its (n1, k n2) layout, then one
        short reduction per sample.  A trend is taken off in place and
        added back twice over for the mirror.
        """
        n1, n2 = len(self.xs), len(self.ys)
        out = np.empty(((n + 1) // 2, 2))
        shift = None
        if trend != (0.0, 0.0):
            shift = (trend[0] * self.xs[:, None] + trend[1] * self.ys)[:, None, :]
            twice = 2.0 * shift
        for s0, block in self._blocks(rng, len(out)):
            k = block.shape[1]
            rows = block.reshape(n1, k * n2)
            if shift is not None:
                block -= shift
            np.maximum.reduce(rows, axis=0).reshape(k, n2).max(axis=1, out=out[s0 : s0 + k, 0])
            if shift is not None:
                block += twice
            np.minimum.reduce(rows, axis=0).reshape(k, n2).min(axis=1, out=out[s0 : s0 + k, 1])
        np.negative(out[:, 1], out=out[:, 1])
        return out.reshape(-1)[:n]

    def describe(self) -> str:
        return f"lattice {len(self.xs)}x{len(self.ys)}"


def build_lattice(
    params: ModelParams,
    n_per_axis: int | None = None,
    xs: np.ndarray | None = None,
    ys: np.ndarray | None = None,
) -> LatticeField:
    """Kronecker-factorized lattice: uniform n x n from `n_per_axis`, or on both
    axes `xs`, `ys`; one of the two, never a mix, which would drop an argument."""
    if xs is None and ys is None:
        if n_per_axis is None or n_per_axis < 2:
            raise ValueError("give n_per_axis >= 2 or explicit axis coordinates")
        xs = np.linspace(0.0, params.T, n_per_axis)
        ys = xs.copy()
    elif xs is None or ys is None or n_per_axis is not None:
        raise ValueError("give n_per_axis alone or both axes xs and ys alone")
    return LatticeField(params, xs, ys)


def side_emphasis_axis(params: ModelParams) -> np.ndarray:
    """Axis coordinates emphasizing the side strips.

    A uniform sweep of [0, T] joined with a geometric refinement of the
    strip (0, width]; used on both axes it yields a tensor lattice that
    resolves the two strips and the corner where side-regime excursions
    concentrate, without the quadratic memory of a uniformly fine grid.
    The sizes are fixed: the side-regime checks use no other.
    """
    width = 0.25
    if params.T < width:
        raise ValueError(f"side grids need T >= {width}, got T = {params.T}")
    u = np.linspace(0.0, params.T, 72)
    g = np.geomspace(1e-4, width, 28)
    return np.unique(np.concatenate([u, g]))


@dataclass(frozen=True)
class MCEstimate:
    """Excursion probability estimate p_hat = k / n with the paired standard
    error of its antithetic samples (`streams.paired_mean_se`)."""

    p_hat: float
    std_err: float


@dataclass(frozen=True)
class BlockSpec:
    """A correlation block [v1, v1 + s1 q_u] x [v2, v2 + s2 q_u]."""

    base: Point2
    s1: float
    s2: float
    level_u: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.base, self.s1, self.s2))):  # nan passes bounds
            raise ValueError(
                f"block base and sides must be finite, got {tuple(self.base)}, {self.s1}, {self.s2}"
            )
        if not (self.base[0] >= 0 and self.base[1] >= 0):
            raise ValueError(f"block base v1, v2 must be nonnegative, got {tuple(self.base)}")
        if self.s1 < 0 or self.s2 < 0 or (self.s1 == 0 and self.s2 == 0):
            raise ValueError("side multipliers s1, s2 must be nonnegative, not both zero")
        if not math.isfinite(self.level_u):
            raise ValueError(f"level u must be finite, got {self.level_u}")
        if not (self.level_u > 0):
            raise ValueError(f"level u must be positive, got {self.level_u}")

    def bounds(self, params: ModelParams) -> tuple[float, float, float, float]:
        """(x0, x1, y0, y1) under `params`; refused for a trended model (the
        block prediction has no trend term) or a block outside [0, T]^2."""
        if (params.c1, params.c2) != (0.0, 0.0):
            raise ValueError(
                f"block exceedance has no trend term; got c1 = {params.c1}, c2 = {params.c2}"
            )
        q = correlation_scale(params, self.level_u)
        x0, y0 = self.base
        x1, y1 = x0 + self.s1 * q, y0 + self.s2 * q
        if x1 > params.T or y1 > params.T:
            raise ValueError(
                f"block [{x0},{x1}]x[{y0},{y1}] not contained in [0,{params.T}]^2"
            )
        return x0, x1, y0, y1


@dataclass(frozen=True)
class BlockResult:
    """Block MC estimate with its local-limit companion prediction."""

    estimate: MCEstimate
    prediction: float
    h1: float
    h2: float


@dataclass(frozen=True)
class RatioRow:
    """One level of the MC-versus-prediction comparison table."""

    u: float
    p_hat: float
    std_err: float
    prediction: float
    ratio: float


def excursion_maxima(
    field: LatticeField,
    n_samples: int,
    seed: int,
    trend: tuple[float, float] = (0.0, 0.0),
    batch_size: int = DEFAULT_BATCH,
    workers: int = 1,
) -> np.ndarray:
    """Per-sample lattice maxima of X(t) - c1 t1 - c2 t2, batch after batch,
    each batch in the antithetic pairs of `LatticeField.maxima_batch`; a run
    whose draws in flight `streams.check_run` refuses draws nothing."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    trend = (float(trend[0]), float(trend[1]))
    if not all(map(math.isfinite, trend)):  # a nan maximum exceeds no level
        raise ValueError(f"trend slopes must be finite, got {trend}")

    def work(b: int, take: int) -> np.ndarray:
        return field.maxima_batch(batch_generator(seed, b), take, trend)

    sizing = _run_size(field, n_samples, batch_size)
    parts = run_batches(work, n_samples, batch_size, workers, **sizing)
    return np.concatenate(parts)


def _run_size(field: LatticeField, n_samples: int, batch_size: int) -> dict:
    """What `streams.check_run` sizes a lattice run by."""
    return dict(
        what=field.describe(), item="samples", held=field.held,
        batch_bytes=field.batch_bytes(min(batch_size, n_samples)),
    )


def _estimate_from_maxima(maxima: np.ndarray, u: float, batch_size: int) -> MCEstimate:
    """p_hat = k / n and its paired SE, from `excursion_maxima`'s maxima."""
    hits = maxima > u
    edges = np.cumsum([0] + batch_sizes(len(maxima), batch_size))
    moments = sum(pair_moments(hits[a:b].astype(float)) for a, b in zip(edges[:-1], edges[1:]))
    p, se = paired_mean_se(moments, len(maxima), batch_size)
    return MCEstimate(p_hat=float(p), std_err=float(se))


def mc_excursion(
    field: LatticeField,
    u: float,
    trend: tuple[float, float] = (0.0, 0.0),
    n_samples: int = 100_000,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH,
    workers: int = 1,
) -> MCEstimate:
    """Monte Carlo excursion probability P(max over lattice of X - c.t > u)."""
    if not math.isfinite(u):
        raise ValueError("u must be finite")
    maxima = excursion_maxima(field, n_samples, seed, trend, batch_size, workers)
    return _estimate_from_maxima(maxima, u, batch_size)


def mc_block_exceedance(
    params: ModelParams,
    spec: BlockSpec,
    n_samples: int,
    seed: int,
    n_grid: int = BLOCK_N_GRID,
    h_replicates: int = BLOCK_H_REPLICATES,
    batch_size: int = DEFAULT_BATCH,
    workers: int = 1,
) -> BlockResult:
    """Block exceedance MC with its local companion prediction.

    The prediction is H(S1) * H(S2) * Psi(u) * exp(-u^2 V(v)).  Each H(S) is
    a `pickands_finite` estimate on as many grid points per axis as the
    block itself uses, so both sides of the comparison carry the same
    discretization bias; degenerate sides (S = 0) contribute the exact
    factor H(0) = 1.  `spec.bounds` refuses a trended model or a block
    outside [0, T]^2 before anything is drawn.  The lattice is set up and its
    run sized (`streams.check_run`) before the H factors, and sampled after
    them, so an over-budget lattice draws no path and a refused H factor
    draws no field.
    """
    x0, x1, y0, y1 = spec.bounds(params)
    u = spec.level_u
    xs = np.linspace(x0, x1, n_grid) if spec.s1 > 0 else np.array([x0])
    ys = np.linspace(y0, y1, n_grid) if spec.s2 > 0 else np.array([y0])
    field = LatticeField(params, xs, ys)
    check_run(n_samples, batch_size, workers, **_run_size(field, n_samples, batch_size))

    def h_of(s_mult: float, n_axis: int, sub_seed: int) -> float:
        if s_mult <= 0:
            return 1.0
        return pickands_finite_cached(
            params.alpha, s_mult, n_axis, h_replicates, sub_seed, batch_size, workers
        )

    h1 = h_of(spec.s1, len(xs), seed + 1)
    h2 = h1 if (spec.s2 == spec.s1) else h_of(spec.s2, len(ys), seed + 2)
    maxima = excursion_maxima(field, n_samples, seed, (0.0, 0.0), batch_size, workers)
    est = _estimate_from_maxima(maxima, u, batch_size)
    v_base = variance_loss_at(params, x0, y0)
    prediction = h1 * h2 * quad.normal_survival(u) * math.exp(-u * u * v_base)
    return BlockResult(estimate=est, prediction=prediction, h1=h1, h2=h2)


def pickands_finite_cached(
    alpha: float,
    S: float,
    n_points: int,
    n_replicates: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH,
    workers: int = 1,
) -> float:
    """pickands_finite value at the automatic sampler choice.

    The block runner's H(S) factors go through this name so the benchmark's
    tracer can time them as their own layer.
    """
    return pickands.pickands_finite(
        alpha, S, n_points, n_replicates, seed, batch_size, workers
    ).value


def ratio_harness(
    params: ModelParams,
    u_ladder: list[float],
    field: LatticeField,
    n_samples: int,
    seed: int,
    h_alpha: float | None = None,
    batch_size: int = DEFAULT_BATCH,
    workers: int = 1,
) -> list[RatioRow]:
    """MC estimate versus leading-order prediction across a ladder of levels.

    One pass of field samples serves every level: the per-sample maxima are
    computed once and compared against each u.  The prediction column is
    `asymptotics.predict` at the default tolerances, trended or not as the
    params say; agreement is asymptotic, so callers should assert trends of
    the ratio column, not equality.
    """
    if params != field.params:
        raise ValueError(f"params {params} differ from the field's {field.params}")
    if not u_ladder or any(b <= a for a, b in zip(u_ladder, u_ladder[1:])):
        raise ValueError("u_ladder must be nonempty and strictly increasing")
    trend = (params.c1, params.c2)
    pred = asymptotics.predict(params, h_alpha)
    predictions = [pred.evaluate(u) for u in u_ladder]  # refuses u <= 1 and non-finite u, undrawn
    maxima = excursion_maxima(field, n_samples, seed, trend, batch_size, workers)
    rows = []
    for u, pv in zip(u_ladder, predictions):
        est = _estimate_from_maxima(maxima, u, batch_size)
        rows.append(RatioRow(u, est.p_hat, est.std_err, pv, ratio_to_prediction(est.p_hat, pv)))
    return rows


def ratio_to_prediction(value: float, prediction: float) -> float:
    """value / prediction, inf where the prediction underflowed to 0."""
    return value / prediction if prediction > 0 else math.inf
