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

One memory rule serves every Monte Carlo layer, where its batches run:
`run_batches` refuses, before the first batch, what the sampler `held` plus
min(workers, batches) times `batch_bytes` over half of physical memory.
One block rule, `block_items`, cuts a batch into L2-sized blocks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

__all__ = ["batch_generator", "batch_sizes", "block_items", "run_batches", "DEFAULT_BATCH"]

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

    First the run, named `what`, is sized: the `held` bytes its sampler
    keeps, plus for each batch in flight `batch_bytes`, what one batch of
    min(batch, n_total) `item` holds, refused over `memory_budget()`.
    Batches may run on a thread pool; the returned list is always in batch
    order, so any order-sensitive reduction downstream sees the same sequence
    regardless of `workers`.  A failed or interrupted run stops after the
    batches in flight.
    """
    if batch < 1 or workers < 1:
        raise ValueError(f"batch size and workers must be at least 1, got {batch} and {workers}")
    sizes = batch_sizes(n_total, batch)
    take = min(batch, n_total)
    in_flight = max(1, min(workers, len(sizes)))
    _refuse_over_budget(
        f"{what} x {take} {item} per batch = {batch_bytes / 1e9:.3g} GB; with "
        f"{in_flight} in flight the run",
        held + in_flight * batch_bytes,
        "use fewer workers, a smaller batch_size or a coarser grid",
    )
    if workers <= 1 or len(sizes) <= 1:
        return [work(i, sz) for i, sz in enumerate(sizes)]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(work, range(len(sizes)), sizes))
    finally:
        pool.shutdown(cancel_futures=True)


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
