"""Thread-level parallelization of the blocked LD GEMM.

BLIS obtains multithreaded GEMM by parallelizing loops *around* the
micro-kernel; the standard choice for rank-k shapes is the jc/ic macro loops,
which need no synchronization because threads own disjoint tiles of C
(Section IV's "leverage existing efficient parallelization schemes"). We
parallelize the m dimension: each thread runs the full blocked driver over a
contiguous row range of A into its own C rows.

For the symmetric ``GᵀG`` case the lower-triangle work grows quadratically
with the row index, so row ranges are split on the triangle's area rather
than uniformly (:func:`partition_triangle_rows`).

Threads (not processes) are the right vehicle here: the numpy bitwise
ufuncs release the GIL, matching the paper's shared-memory Pthreads setup.
On hardware with fewer cores than requested threads the result is still
correct — the thread-scaling *figures* are produced by the machine model
(:mod:`repro.machine.multicore`), not by this module.

The partition helpers below are the in-memory counterpart of the sharded
tile scheduler in :mod:`repro.core.engine`: both balance the quadratic
lower-triangle workload, here as contiguous row ranges owned by threads,
there as an explicit restartable tile list spread over worker pools.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.blocking import BlockingParams
from repro.core.gemm import DEFAULT_KERNEL, popcount_gemm, popcount_gram
from repro.core.macrokernel import mirror_lower_inplace

__all__ = ["partition_ranges", "partition_triangle_rows", "popcount_gemm_parallel"]


def partition_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into *parts* contiguous near-equal ranges.

    Empty ranges are dropped, so fewer than *parts* ranges come back when
    ``total < parts``.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    base, extra = divmod(total, parts)
    ranges = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        if size:
            ranges.append((start, start + size))
        start += size
    return ranges


def partition_triangle_rows(m: int, parts: int) -> list[tuple[int, int]]:
    """Split rows of an ``m × m`` lower triangle into load-balanced ranges.

    Row *i* of the lower triangle holds ``i + 1`` entries, so the work of
    rows ``[0, r)`` is ~``r²/2``; boundaries sit at ``m·sqrt(t/parts)``.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    boundaries = [round(m * math.sqrt(t / parts)) for t in range(parts + 1)]
    boundaries[0], boundaries[-1] = 0, m
    ranges = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        if hi > lo:
            ranges.append((lo, hi))
    return ranges


def popcount_gemm_parallel(
    a_words: np.ndarray,
    b_words: np.ndarray | None = None,
    *,
    n_threads: int = 1,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
) -> np.ndarray:
    """Multithreaded all-pairs popcount inner products.

    Parameters
    ----------
    a_words:
        Packed ``(m, k)`` word matrix.
    b_words:
        Packed ``(n, k)`` word matrix, or ``None`` for the symmetric
        ``A Aᵀ`` case (computed over the lower triangle and mirrored).
    n_threads:
        Worker threads; each owns a disjoint row range of C.
    """
    if n_threads <= 0:
        raise ValueError(f"n_threads must be positive, got {n_threads}")
    symmetric = b_words is None
    if symmetric:
        ranges = partition_triangle_rows(a_words.shape[0], n_threads)
        if len(ranges) <= 1:
            return popcount_gram(a_words, params=params, kernel=kernel)
    b = a_words if symmetric else b_words
    m = a_words.shape[0]
    n = b.shape[0]
    c = np.zeros((m, n), dtype=np.int64)

    if symmetric:

        def run(row_range: tuple[int, int]) -> None:
            lo, hi = row_range
            # Rows [lo, hi) of the lower triangle: a rectangle left of the
            # diagonal plus the square on it, which the Gram driver
            # contracts as a symmetric block.
            if lo:
                c[lo:hi, :lo] = popcount_gemm(
                    a_words[lo:hi], b[:lo], params=params, kernel=kernel
                )
            c[lo:hi, lo:hi] = popcount_gram(
                a_words[lo:hi], params=params, kernel=kernel
            )

    else:
        ranges = partition_ranges(m, n_threads)

        def run(row_range: tuple[int, int]) -> None:
            lo, hi = row_range
            c[lo:hi] = popcount_gemm(
                a_words[lo:hi], b, params=params, kernel=kernel
            )

    if len(ranges) <= 1:
        for r in ranges:
            run(r)
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            # Materialize results so worker exceptions propagate.
            list(pool.map(run, ranges))

    if symmetric:
        mirror_lower_inplace(c)
    return c
