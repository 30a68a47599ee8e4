"""Higher-order (three-locus) LD — the paper's "more specialized use-cases".

The related-work section points at higher-order LD (its reference [28],
Slatkin 2008) as a natural extension of the framework. Bennett's
third-order disequilibrium coefficient for loci ``(i, j, k)`` is

    D_ijk = P_ijk − p_i·D_jk − p_j·D_ik − p_k·D_ij − p_i·p_j·p_k

where ``P_ijk`` is the three-way haplotype frequency and ``D_xy`` the
pairwise coefficients. Like everything else in the paper, the new
ingredient is a popcount inner product — ``POPCNT(s_i & s_j & s_k)`` — and
it too casts as GEMM: fixing locus *i*, the matrix of counts over (j, k)
is one popcount GEMM between the *i-masked* SNP rows ``s_i & s_j`` and the
plain rows ``s_k``. A window of W SNPs therefore costs W GEMMs of W×W —
the same rank-k kernels, one order higher.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocking import BlockingParams
from repro.core.gemm import DEFAULT_KERNEL, popcount_gemm, popcount_gram
from repro.core.ldmatrix import as_bitmatrix
from repro.encoding.bitmatrix import BitMatrix

__all__ = ["third_order_d", "third_order_d_window"]


def third_order_d(
    data: BitMatrix | np.ndarray,
    triples: np.ndarray,
) -> np.ndarray:
    """Bennett's D_ijk for an explicit list of locus triples.

    Parameters
    ----------
    data:
        Dense binary ``(n_samples, n_snps)`` matrix or packed
        :class:`BitMatrix`.
    triples:
        Integer array of shape ``(n_triples, 3)``.

    Returns
    -------
    Array of ``D_ijk`` values aligned with *triples*.
    """
    matrix = as_bitmatrix(data)
    triples = np.asarray(triples)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError(f"triples must have shape (n, 3), got {triples.shape}")
    if triples.size and (triples.min() < 0 or triples.max() >= matrix.n_snps):
        raise ValueError("triple indices out of range")
    if matrix.n_samples == 0:
        raise ValueError("LD undefined for zero samples")
    inv_n = 1.0 / matrix.n_samples
    words = matrix.words
    p = matrix.allele_frequencies()

    out = np.empty(triples.shape[0])
    for idx, (i, j, k) in enumerate(triples):
        w_ij = words[i] & words[j]
        p_ijk = float(np.bitwise_count(w_ij & words[k]).sum()) * inv_n
        p_ij = float(np.bitwise_count(w_ij).sum()) * inv_n
        p_ik = float(np.bitwise_count(words[i] & words[k]).sum()) * inv_n
        p_jk = float(np.bitwise_count(words[j] & words[k]).sum()) * inv_n
        d_ij = p_ij - p[i] * p[j]
        d_ik = p_ik - p[i] * p[k]
        d_jk = p_jk - p[j] * p[k]
        out[idx] = (
            p_ijk
            - p[i] * d_jk
            - p[j] * d_ik
            - p[k] * d_ij
            - p[i] * p[j] * p[k]
        )
    return out


def third_order_d_window(
    data: BitMatrix | np.ndarray,
    start: int,
    stop: int,
    *,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
) -> np.ndarray:
    """All D_ijk within the SNP window ``[start, stop)`` via W GEMMs.

    Returns a ``(W, W, W)`` array over local indices; only entries with
    ``i < j < k`` are meaningful for interpretation (the coefficient is
    symmetric under permutation, and the full cube is filled consistently).
    """
    matrix = as_bitmatrix(data)
    if not 0 <= start < stop <= matrix.n_snps:
        raise ValueError(
            f"window [{start}, {stop}) out of range for {matrix.n_snps} SNPs"
        )
    if matrix.n_samples == 0:
        raise ValueError("LD undefined for zero samples")
    w = stop - start
    words = matrix.words[start:stop]
    inv_n = 1.0 / matrix.n_samples
    p = matrix.allele_frequencies()[start:stop]

    # Pairwise layer: one GEMM.
    pair_h = popcount_gram(words, params=params, kernel=kernel) * inv_n
    pair_d = pair_h - np.outer(p, p)

    # Triple layer: for each i, GEMM of the i-masked rows against all rows.
    out = np.empty((w, w, w))
    for i in range(w):
        masked = words & words[i][None, :]
        triple_h = (
            popcount_gemm(masked, words, params=params, kernel=kernel) * inv_n
        )
        # D_ijk over (j, k) for this i.
        out[i] = (
            triple_h
            - p[i] * pair_d                        # p_i * D_jk
            - p[:, None] * pair_d[i][None, :]      # p_j * D_ik
            - pair_d[:, i][:, None] * p[None, :]   # p_k * D_ij
            - p[i] * np.outer(p, p)                # p_i p_j p_k
        )
    return out
