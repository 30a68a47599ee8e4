"""Finite-sites LD: the multi-allelic T statistic (paper Section VII, Eq. 6).

Under a finite-sites model each SNP carries up to four states, encoded as
four bit planes (:class:`~repro.encoding.fsm.FiniteSitesMatrix`). Following
Zaykin, Pudovkin & Weir (2008) as quoted by the paper, the pairwise statistic
is

    T_ij = ((v_i − 1)(v_j − 1) v_ij) / (v_i v_j) · Σ_{a,b ∈ S} r²_{ab}

where ``v_i``/``v_j`` count the observed states at each SNP, ``v_ij`` counts
the valid (gap-free at both SNPs) sample pairs, and each ``r²_{ab}`` is the
ordinary two-state r² (Eq. 2) between indicator vectors "state *a* at SNP i"
and "state *b* at SNP j" over the jointly valid samples. Up to 4 × 4 = 16
state combinations contribute — the "16 times more computations than the
ISM" worst case the paper quotes.

Every ingredient is again a popcount GEMM: because a plane bit implies a
valid state, ``plane_a[i] & plane_b[j] ⊆ c_ij`` automatically, so

    joint counts  : 16 GEMMs   gram/gemm over (plane_a, plane_b)
    marginals     : 8 GEMMs    gemm(plane_a, valid) and gemm(valid, plane_b)
    sample sizes  : 1 GEMM     gram(valid)

which is exactly how :func:`fsm_ld_matrix` is built.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocking import BlockingParams
from repro.core.gemm import DEFAULT_KERNEL, popcount_gemm, popcount_gram
from repro.encoding.fsm import DNA_STATES, FiniteSitesMatrix

__all__ = ["fsm_ld_matrix", "fsm_ld_pair"]


def fsm_ld_pair(matrix: FiniteSitesMatrix, i: int, j: int) -> float:
    """T statistic (Eq. 6) for one SNP pair; NaN when undefined.

    Undefined when either SNP has a single observed state among the jointly
    valid samples, or no sample is valid at both SNPs.
    """
    valid = matrix.validity_mask().words
    c_ij = valid[i] & valid[j]
    n_ij = int(np.bitwise_count(c_ij).sum())
    if n_ij == 0:
        return float("nan")
    plane_words = [plane.words for plane in matrix.planes]
    counts_i = np.array(
        [int(np.bitwise_count(w[i] & c_ij).sum()) for w in plane_words]
    )
    counts_j = np.array(
        [int(np.bitwise_count(w[j] & c_ij).sum()) for w in plane_words]
    )
    v_i = int((counts_i > 0).sum())
    v_j = int((counts_j > 0).sum())
    if v_i < 2 or v_j < 2:
        return float("nan")
    r2_sum = 0.0
    for a in range(len(DNA_STATES)):
        p_a = counts_i[a] / n_ij
        if not 0.0 < p_a < 1.0:
            continue
        for b in range(len(DNA_STATES)):
            p_b = counts_j[b] / n_ij
            if not 0.0 < p_b < 1.0:
                continue
            joint = int(
                np.bitwise_count(plane_words[a][i] & plane_words[b][j]).sum()
            )
            d = joint / n_ij - p_a * p_b
            r2_sum += d * d / (p_a * p_b * (1.0 - p_a) * (1.0 - p_b))
    return ((v_i - 1) * (v_j - 1) * n_ij) / (v_i * v_j) * r2_sum


def fsm_ld_matrix(
    matrix: FiniteSitesMatrix,
    *,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
    undefined: float = np.nan,
) -> np.ndarray:
    """All-pairs T statistic via 25 blocked popcount GEMMs.

    Notes
    -----
    State counts and frequencies are evaluated over each pair's jointly
    valid sample set (``c_ij``), matching :func:`fsm_ld_pair` exactly —
    including ``v_i``/``v_j``, which can differ between pairs of the same
    SNP when gaps overlap differently.
    """
    valid = matrix.validity_mask().words
    n_snps = matrix.n_snps
    plane_words = [plane.words for plane in matrix.planes]
    n_states = len(DNA_STATES)

    n_ij = popcount_gram(valid, params=params, kernel=kernel).astype(
        np.float64
    )
    # counts_left[a][i, j] = #samples with state a at SNP i, valid at SNP j.
    counts_left = [
        popcount_gemm(w, valid, params=params, kernel=kernel).astype(np.float64)
        for w in plane_words
    ]
    counts_right = [
        popcount_gemm(valid, w, params=params, kernel=kernel).astype(np.float64)
        for w in plane_words
    ]
    v_left = sum((c > 0).astype(np.int64) for c in counts_left)
    v_right = sum((c > 0).astype(np.int64) for c in counts_right)

    with np.errstate(divide="ignore", invalid="ignore"):
        r2_sum = np.zeros((n_snps, n_snps))
        for a in range(n_states):
            p_a = counts_left[a] / n_ij
            informative_a = (p_a > 0.0) & (p_a < 1.0)
            for b in range(n_states):
                joint = popcount_gemm(
                    plane_words[a], plane_words[b], params=params, kernel=kernel
                )
                p_b = counts_right[b] / n_ij
                informative = informative_a & (p_b > 0.0) & (p_b < 1.0)
                d = joint / n_ij - p_a * p_b
                denom = p_a * p_b * (1.0 - p_a) * (1.0 - p_b)
                contrib = np.where(informative, d * d / denom, 0.0)
                r2_sum += np.nan_to_num(contrib, nan=0.0)
        scale = ((v_left - 1) * (v_right - 1) * n_ij) / (v_left * v_right)
        t = scale * r2_sum
    defined = (n_ij > 0) & (v_left >= 2) & (v_right >= 2)
    return np.where(defined, t, undefined)
