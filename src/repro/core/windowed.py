"""Banded (windowed) LD: all pairs within a SNP-distance window.

Whole-chromosome LD matrices are never stored dense — LD decays with
distance, so production tools (PLINK's windowed modes, OmegaPlus's region
bounds) compute only pairs ``|i − j| <= W``. The blocked GEMM serves this
directly: the band of the output is covered by rectangular cross-GEMMs
between consecutive row blocks and their right-neighbourhoods, so the
windowed computation keeps the full kernel efficiency while doing
``O(n·W)`` instead of ``O(n²)`` work.

Storage is diagonal-major: ``values[i, d]`` holds the statistic for the
pair ``(i, i + d)``, ``d = 0..W`` — the natural layout for decay analyses
and sliding-window consumers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.blocking import BlockingParams
from repro.core.gemm import DEFAULT_KERNEL
from repro.core.ldmatrix import as_bitmatrix
from repro.encoding.bitmatrix import BitMatrix

__all__ = ["BandedLDMatrix", "banded_ld", "write_banded_block"]

_STATS = ("r2", "D", "H")


@dataclass(frozen=True)
class BandedLDMatrix:
    """LD values for all SNP pairs within a window, diagonal-major.

    Attributes
    ----------
    values:
        ``(n_snps, window + 1)`` array; ``values[i, d]`` is the statistic
        for pair ``(i, i + d)``. Entries running past the last SNP are NaN.
    window:
        Maximum index distance stored.
    stat:
        Which statistic the values hold.
    """

    values: np.ndarray
    window: int
    stat: str

    @property
    def n_snps(self) -> int:
        """Number of SNPs covered."""
        return self.values.shape[0]

    def get(self, i: int, j: int) -> float:
        """Value for pair ``(i, j)``; raises if the pair is outside the band."""
        lo, hi = (i, j) if i <= j else (j, i)
        if not 0 <= lo <= hi < self.n_snps:
            raise IndexError(f"pair ({i}, {j}) out of range")
        d = hi - lo
        if d > self.window:
            raise IndexError(
                f"pair ({i}, {j}) is {d} apart, outside the {self.window}-SNP band"
            )
        return float(self.values[lo, d])

    def to_dense(self, fill: float = np.nan) -> np.ndarray:
        """Materialize the symmetric dense matrix with *fill* off the band."""
        n = self.n_snps
        dense = np.full((n, n), fill, dtype=np.float64)
        for d in range(min(self.window, n - 1) + 1):
            diag = self.values[: n - d, d]
            idx = np.arange(n - d)
            dense[idx, idx + d] = diag
            dense[idx + d, idx] = diag
        return dense

    def n_pairs(self) -> int:
        """Number of stored (i <= j) pairs, diagonal included.

        Every row holds ``w + 1`` pairs except the last ``w``, which run
        past the last SNP and lose ``1..w`` of them:
        ``n·(w + 1) − w·(w + 1)/2`` with ``w = min(window, n − 1)``.
        """
        n = self.n_snps
        w = min(self.window, n - 1)
        return n * (w + 1) - w * (w + 1) // 2

    def mean_by_distance(self) -> np.ndarray:
        """Mean statistic per index distance ``d = 0..window`` (NaN-aware)."""
        with np.errstate(invalid="ignore"):
            return np.nanmean(self.values, axis=0)


@functools.lru_cache(maxsize=256)
def _band_write_mask(
    offset: int, rows: int, cols: int, window: int
) -> np.ndarray:
    """Read-only ``(rows, cols)`` mask of ``0 <= i − j <= window``.

    *offset* is ``i0 − j0``; the mask depends only on it and the tile
    shape, so every interior tile of a sweep shares one array.
    """
    d = offset + np.arange(rows)[:, None] - np.arange(cols)[None, :]
    mask = (d >= 0) & (d <= window)
    mask.setflags(write=False)
    return mask


def write_banded_block(
    values: np.ndarray, window: int, i0: int, j0: int, block: np.ndarray
) -> None:
    """Write one lower-triangle tile into a diagonal-major band store.

    The statistic for pair ``(i, j)`` with ``i >= j`` lands at
    ``values[j, i - j]``; cells of *block* outside the band or above the
    diagonal (the mirrored half of diagonal tiles — same value for
    symmetric stats) are ignored. This is the shared translation between
    the engine's ``(i0, j0, block)`` sink protocol and the ``(n, W+1)``
    layout :class:`BandedLDMatrix` defines.

    The tile is written by one masked ``np.copyto`` through a skewed
    view of the store. With ``W = values.shape[1] − 1`` (the store's
    width, which may exceed *window*), slot ``values[j, d]`` sits at
    element ``j·(W+1) + d`` of the flat C-order buffer, so pair
    ``(i, j)`` sits at ``j·W + i``, linear in both indices. The view therefore starts at
    element ``j0·(W+1) + (i0 − j0)`` with strides ``(itemsize,
    row_stride − itemsize)``: ``view[r, c]`` is
    ``values[j0 + c, (i0 + r) − (j0 + c)]``. It is built on the base
    ndarray (``np.asarray``), so a memmap store costs one view per tile
    rather than a subclass view per column.

    The band mask ``0 <= i − j <= window`` is also the aliasing guard.
    A view cell with ``i − j < 0`` addresses the tail of row ``j − 1``,
    and one with ``i − j > W`` addresses the head of row ``j + 1``;
    those cells alias other pairs' slots and must never be written, so
    the mask is applied even to tiles that lie wholly inside the band's
    index range. Tiles with no in-band cell return without building the
    view.

    Raises
    ------
    ValueError
        If *values* is not a C-contiguous 2-D array (a flat reshape of
        anything else is a copy, and the writes would be lost), if
        ``i0 < j0`` or either origin is negative, if the tile runs past
        the last row, if *window* is negative or wider than the store
        (``window > values.shape[1] − 1``), or if the view's lowest or
        highest element falls outside the buffer.
    """
    if values.ndim != 2 or not values.flags.c_contiguous:
        raise ValueError(
            "band store must be a C-contiguous 2-D array; got "
            f"shape {values.shape} with strides {values.strides}"
        )
    n, width = values.shape
    rows, cols = block.shape
    if j0 < 0 or i0 < j0:
        raise ValueError(
            f"tile origin ({i0}, {j0}) is not in the lower triangle "
            "(need i0 >= j0 >= 0)"
        )
    if i0 + rows > n or j0 + cols > n:
        raise ValueError(
            f"tile ({i0}, {j0}) of shape {block.shape} runs past the "
            f"store's {n} rows"
        )
    if not 0 <= window <= width - 1:
        raise ValueError(
            f"window {window} does not fit a store of width {width} "
            f"(at most {width - 1})"
        )
    offset = i0 - j0
    if rows == 0 or cols == 0 or offset - (cols - 1) > window:
        return
    base = np.asarray(values).reshape(-1)
    start = j0 * width + offset
    last = start + (rows - 1) + (cols - 1) * (width - 1)
    if start < 0 or last >= base.size:
        raise ValueError(
            f"skewed view [{start}, {last}] of tile ({i0}, {j0}) lies "
            f"outside the {base.size}-element store"
        )
    item = base.itemsize
    view = np.lib.stride_tricks.as_strided(
        base[start:],
        shape=(rows, cols),
        strides=(item, (width - 1) * item),
    )
    np.copyto(view, block, where=_band_write_mask(offset, rows, cols, window))


def banded_ld(
    data: BitMatrix | np.ndarray,
    window: int,
    stat: str = "r2",
    *,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
    undefined: float = np.nan,
    block_snps: int | None = None,
) -> BandedLDMatrix:
    """LD for all pairs within *window* SNPs of each other.

    A thin wrapper over the band-aware tiled engine
    (:func:`repro.core.engine.run_engine` with ``band=window``): the band
    is covered by square lower-triangle tiles whose fully-outside members
    are never enumerated, so every in-band pair is computed by exactly
    one kernel-efficient GEMM call and total work stays O(n·window). The
    results are bit-identical to a dense engine run's band slice —
    callers needing resume, multi-worker executors, out-of-core panels,
    or fault injection use ``run_engine(band=...)`` directly.

    Parameters
    ----------
    data:
        Dense binary ``(n_samples, n_snps)`` matrix or packed
        :class:`BitMatrix`.
    window:
        Maximum SNP-index distance (≥ 1).
    stat:
        ``"r2"``, ``"D"``, or ``"H"``.
    block_snps:
        Tile size of the engine tiling; the default (``max(window,
        128)``) keeps each block row to a handful of tiles, so total
        work stays O(n·window) while the tiles remain large enough for
        kernel efficiency.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1 SNP, got {window}")
    if stat not in _STATS:
        raise ValueError(f"unknown LD statistic {stat!r}; choose from {_STATS}")
    matrix = as_bitmatrix(data)
    if matrix.n_samples == 0:
        raise ValueError("LD undefined for zero samples")
    block = block_snps if block_snps is not None else max(window, 128)
    if block < 1:
        raise ValueError(f"block_snps must be >= 1, got {block}")
    # Engine imported lazily: this module defines the banded *layout* and
    # is imported by sinks the engine's callers use.
    from repro.core.engine import run_engine

    n = matrix.n_snps
    values = np.full((n, window + 1), np.nan, dtype=np.float64)

    def sink(i0: int, j0: int, tile_block: np.ndarray) -> None:
        write_banded_block(values, window, i0, j0, tile_block)

    run_engine(
        matrix,
        sink,
        stat=stat,
        block_snps=block,
        engine="serial",
        band=window,
        params=params,
        kernel=kernel,
        undefined=undefined,
    )
    return BandedLDMatrix(values=values, window=window, stat=stat)
