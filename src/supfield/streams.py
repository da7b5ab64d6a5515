"""Counter-based random streams and deterministic batch scheduling.

Monte Carlo work is issued in fixed-size batches.  Batch b of a run seeded
with `seed` draws from a Philox generator whose 256-bit counter starts at
b << 128, so every batch owns a disjoint counter range derived only from
(seed, batch index).  Results are reduced in batch order.  Together these
make every estimate a pure function of (seed, n_samples, batch_size),
independent of how many workers execute the batches.  The values drawn are
bit-exact; what a caller computes from them with BLAS (the lattice field's
factor products) is bit-exact for a fixed BLAS thread count, and may differ
in the last bit under another.

Every Monte Carlo batch samples in antithetic pairs: sample 2i of a batch
is its i-th draw (a lattice field or an fBm path) and sample 2i + 1 that
draw's mirror, the same normals negated.  A batch of `take` samples draws
ceil(take / 2); an odd batch drops its last mirror, so its last sample is
unpaired.  The mirror of a centred Gaussian field has the field's law, so
each sample is exact; both fields sampled here have nonnegative
correlations, so by Pitt's theorem (Ann. Probab. 10(2), 1982) an increasing
functional of a draw and of its mirror are nonpositively correlated, and a
pair is never worse than two independent samples, at about the cost of one
draw.  `pair_moments` and `paired_mean_se` turn per-sample values into a
mean and a standard error that count that correlation.

One memory rule serves every Monte Carlo layer, where its batches run:
`check_run` refuses what the sampler `held` plus min(workers, batches)
times `batch_bytes` over half of physical memory; `run_batches` calls it
before the first batch.  One block rule, `block_items`, cuts a batch into
L2-sized blocks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

__all__ = [
    "batch_generator",
    "batch_sizes",
    "block_items",
    "check_run",
    "pair_moments",
    "paired_mean_se",
    "run_batches",
    "DEFAULT_BATCH",
]

DEFAULT_BATCH = 2048
# Working set of one block of a batch, sized for L2: a lattice block's draw
# and product buffers, or a chunk of Pickands paths.
_BLOCK_BYTES = 2 * 1024 * 1024

_T = TypeVar("_T")


def batch_generator(seed: int, batch_index: int) -> np.random.Generator:
    """Philox stream for one batch: key = seed, counter base = batch << 128."""
    if batch_index < 0:
        raise ValueError("batch_index must be nonnegative")
    bg = np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF), counter=batch_index << 128)
    return np.random.Generator(bg)


def batch_sizes(n_total: int, batch: int = DEFAULT_BATCH) -> list[int]:
    """Sizes of the fixed batch partition of n_total items."""
    if n_total < 0:
        raise ValueError("n_total must be nonnegative")
    full, rem = divmod(n_total, batch)
    out = [batch] * full
    if rem:
        out.append(rem)
    return out


def block_items(item_bytes: int, step: int = 1) -> int:
    """Items per block of a batch: the most whose `item_bytes` each fit in
    `_BLOCK_BYTES`, a multiple of `step`, and at least `step`."""
    return max(1, _BLOCK_BYTES // (item_bytes * step)) * step


def check_run(
    n_total: int, batch: int, workers: int, *, what: str, item: str, held: int, batch_bytes: int
) -> None:
    """Size the run `run_batches(work, n_total, batch, workers, ...)` would make,
    before anything is drawn: the `held` bytes its sampler keeps, plus for
    each batch in flight `batch_bytes`, what one batch of min(batch,
    n_total) `item` holds, refused over `memory_budget()`.  A caller that
    must refuse a run before other work calls it first."""
    if batch < 1 or workers < 1:
        raise ValueError(f"batch size and workers must be at least 1, got {batch} and {workers}")
    take = min(batch, n_total)
    in_flight = max(1, min(workers, len(batch_sizes(n_total, batch))))
    _refuse_over_budget(
        f"{what} x {take} {item} per batch = {batch_bytes / 1e9:.3g} GB; with "
        f"{in_flight} in flight the run",
        held + in_flight * batch_bytes,
        "use fewer workers, a smaller batch_size or a coarser grid",
    )


def run_batches(
    work: Callable[[int, int], _T],
    n_total: int,
    batch: int = DEFAULT_BATCH,
    workers: int = 1,
    *,
    what: str,
    item: str,
    held: int,
    batch_bytes: int,
) -> list[_T]:
    """Evaluate work(batch_index, batch_size) over the partition of n_total.

    First the run, named `what`, is sized by `check_run`.  Batches may run on
    a thread pool; the returned list is always in batch order, so any
    order-sensitive reduction downstream sees the same sequence regardless
    of `workers`.  A failed or interrupted run stops after the batches in
    flight.
    """
    check_run(n_total, batch, workers, what=what, item=item, held=held, batch_bytes=batch_bytes)
    sizes = batch_sizes(n_total, batch)
    if workers <= 1 or len(sizes) <= 1:
        return [work(i, sz) for i, sz in enumerate(sizes)]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(work, range(len(sizes)), sizes))
    finally:
        pool.shutdown(cancel_futures=True)


def pair_moments(values: np.ndarray) -> np.ndarray:
    """(3, ...) sums over one batch's per-sample `values` (rows in sample
    order): of x, of x^2, and over the batch's antithetic pairs (rows 2i,
    2i + 1) of the product of draw and mirror.  Batches add up."""
    p = len(values) // 2
    draws, mirrors = values[0 : 2 * p : 2], values[1 : 2 * p : 2]
    return np.stack(
        [values.sum(axis=0), (values * values).sum(axis=0), (draws * mirrors).sum(axis=0)]
    )


def paired_mean_se(moments: np.ndarray, n_total: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of n_total samples drawn in batches of `batch`,
    from the summed `pair_moments` of the batches.

    The samples fall into independent units: the P antithetic pairs, and
    the unpaired last sample of each odd batch.  With m the mean of all n
    samples, s2 = (sum x^2) / n - m^2 and c = (sum over pairs of draw x
    mirror) / P - m^2,

        SE^2 = (s2 + (2P / n) c) / n.

    With every sample paired (n = 2P) this is the variance of the P pair
    means over P; an unpaired sample adds to m and s2 only.  A run of fewer
    than two pairs takes c = 0, the independent-sample SE, which Pitt's
    theorem makes an upper bound for an increasing functional (an
    exceedance, exp of a supremum).
    """
    pairs = sum(take // 2 for take in batch_sizes(n_total, batch))
    mean = moments[0] / n_total
    var = moments[1] / n_total - mean * mean
    if pairs >= 2:
        var = var + 2.0 * pairs / n_total * (moments[2] / pairs - mean * mean)
    return mean, np.sqrt(np.maximum(var, 0.0) / n_total)


def memory_budget() -> int:
    """Most memory the batches of one run may hold at once: half of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def _refuse_over_budget(what: str, need: int, advice: str) -> None:
    """Raise ValueError, before anything is allocated, if `what` needs more
    bytes than `memory_budget()`: a run's batches, or a set-up."""
    budget = memory_budget()
    if need > budget:
        raise ValueError(
            f"{what} needs {need / 1e9:.3g} GB, more than half of physical memory "
            f"({budget / 1e9:.3g} GB); {advice}"
        )
