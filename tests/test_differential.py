"""Differential test harness: every r² execution path must agree exactly.

One seeded generator produces panels across awkward shapes (sample counts
off 64-bit word boundaries, monomorphic all-zero/all-one columns, more
SNPs than samples and vice versa), and every implementation in the repo —
the naive Section II-B baseline, the blocked GEMM under every registered
kernel (both fused macro-kernels and both legacy micro-kernels), the threaded driver at several widths, the streaming loop,
and the sharded-engine executors — is required to reproduce the
same r² matrix to float64 round-off. A hypothesis property suite then
drives every public entry point (``ld_cross``, ``ld_pairs``,
``stream_ld_blocks``, ``run_engine`` × executor × band × storage) over
generated edge-case panels against the ``ld_matrix`` oracle.
"""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_ld_matrix
from repro.core.engine import run_engine
from repro.core.executors import stop_pools
from repro.core.ldmatrix import compute_ld, ld_cross, ld_matrix, ld_pairs
from repro.core.gemm import GEMM_KERNELS
from repro.core.microkernel import MICRO_KERNELS
from repro.core.parallel import popcount_gemm_parallel
from repro.core.prefetch import min_memory_budget
from repro.core.stats import r_squared_matrix
from repro.core.streaming import stream_ld_blocks
from repro.encoding.bitmatrix import BitMatrix
from repro.io.panelstore import pack_panel

from tests.conftest import assert_allclose_nan, reference_ld

#: (n_samples, n_snps) grid: word-aligned and non-aligned sample counts,
#: tall/square/wide SNP panels, and single-word/single-SNP degenerates.
SHAPES = [
    (64, 20),    # exactly one packed word
    (128, 10),   # two exact words
    (1, 6),      # single sample
    (3, 17),     # far below one word
    (63, 24),    # one bit short of a word
    (65, 24),    # one bit past a word
    (90, 41),    # generic non-aligned
    (130, 33),   # two words + fringe bits
    (37, 64),    # more SNPs than samples
    (200, 7),    # deep thin panel
    (70, 1),     # single SNP
    (31, 90),    # wide panel, partial word
]


def make_panel(n_samples: int, n_snps: int, seed: int) -> np.ndarray:
    """Seeded binary panel with forced monomorphic edge columns."""
    rng = np.random.default_rng(0xD1FF + seed)
    dense = rng.integers(0, 2, size=(n_samples, n_snps)).astype(np.uint8)
    # Plant an all-zero and (when room allows) an all-one column: their r²
    # rows are entirely undefined, the NaN pattern every path must share.
    dense[:, 0] = 0
    if n_snps > 2:
        dense[:, n_snps // 2] = 1
    return dense


def reference_r2(dense: np.ndarray) -> np.ndarray:
    return reference_ld(dense)["r2"]


@pytest.fixture(params=range(len(SHAPES)), ids=lambda i: f"{SHAPES[i]}")
def case(request) -> tuple[np.ndarray, np.ndarray]:
    n_samples, n_snps = SHAPES[request.param]
    dense = make_panel(n_samples, n_snps, seed=request.param)
    return dense, reference_r2(dense)


def r2_from_counts(counts: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Normalize a GᵀG count matrix into r² exactly as the pipeline does."""
    n = dense.shape[0]
    p = BitMatrix.from_dense(dense).allele_frequencies()
    return r_squared_matrix(counts / float(n), p)


class TestDifferentialR2:
    def test_naive_matches_reference(self, case):
        dense, expected = case
        assert_allclose_nan(naive_ld_matrix(dense), expected, atol=1e-12)

    @pytest.mark.parametrize("kernel", sorted(GEMM_KERNELS))
    def test_every_micro_kernel(self, case, kernel):
        dense, expected = case
        result = compute_ld(dense, kernel=kernel)
        assert_allclose_nan(result.r2(), expected, atol=1e-12)

    @pytest.mark.parametrize("n_threads", [1, 2, 5])
    def test_parallel_thread_counts(self, case, n_threads):
        dense, expected = case
        words = BitMatrix.from_dense(dense).words
        counts = popcount_gemm_parallel(words, None, n_threads=n_threads)
        assert_allclose_nan(r2_from_counts(counts, dense), expected, atol=1e-12)

    def test_streaming_blocks(self, case):
        dense, expected = case
        n = dense.shape[1]
        assembled = np.full((n, n), np.nan)

        def sink(i0, j0, block):
            assembled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

        stream_ld_blocks(dense, sink, stat="r2", block_snps=5)
        il = np.tril_indices(n)
        assert_allclose_nan(assembled[il], expected[il], atol=1e-12)

    @pytest.mark.parametrize("engine", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("kernel", sorted(GEMM_KERNELS))
    def test_kernel_engine_cross_product(self, kernel, engine):
        """Every micro-kernel under every executor, one awkward shape."""
        dense = make_panel(70, 23, seed=1234)
        expected = reference_r2(dense)
        assembled = np.full((23, 23), np.nan)

        def sink(i0, j0, block):
            assembled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

        run_engine(
            dense, sink, engine=engine, kernel=kernel, block_snps=6,
            n_workers=2,
        )
        il = np.tril_indices(23)
        assert_allclose_nan(assembled[il], expected[il], atol=1e-12)

    @pytest.mark.parametrize("engine", ["serial", "threads", "processes"])
    def test_engine_executors(self, case, engine):
        dense, expected = case
        n = dense.shape[1]
        assembled = np.full((n, n), np.nan)

        def sink(i0, j0, block):
            assembled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

        report = run_engine(
            dense, sink, engine=engine, block_snps=7, n_workers=2
        )
        assert report.complete and report.n_computed == report.n_tiles
        il = np.tril_indices(n)
        assert_allclose_nan(assembled[il], expected[il], atol=1e-12)


def test_all_paths_bit_identical_to_each_other():
    """The GEMM-family paths must agree bit-for-bit, not merely closely.

    All of them reduce to the same int64 counts and the same float64
    normalization expressions, so equality is exact, NaNs included. (The
    naive baseline normalizes with a reciprocal multiply as the pseudocode
    writes it, so it is compared within round-off above, not here.)
    """
    dense = make_panel(101, 29, seed=99)
    baseline = ld_matrix(dense)
    il = np.tril_indices(29)

    results = {}
    for kernel in GEMM_KERNELS:
        results[f"kernel:{kernel}"] = ld_matrix(dense, kernel=kernel)[il]
    for n_threads in (2, 5):
        results[f"threads:{n_threads}"] = ld_matrix(dense, n_threads=n_threads)[il]
    assembled = np.full((29, 29), np.nan)

    def sink(i0, j0, block):
        assembled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

    stream_ld_blocks(dense, sink, block_snps=6)
    results["streaming"] = assembled[il]
    for engine in ("serial", "threads", "processes"):
        tiled = np.full((29, 29), np.nan)

        def esink(i0, j0, block):
            tiled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

        run_engine(dense, esink, engine=engine, block_snps=6, n_workers=2)
        results[f"engine:{engine}"] = tiled[il]

    for name, values in results.items():
        np.testing.assert_array_equal(values, baseline[il], err_msg=name)


# ---------------------------------------------------------------------------
# Property tests: every public entry point against the ld_matrix oracle.
# ---------------------------------------------------------------------------

#: ``ld_pairs`` evaluates the r² formula in a different order than the
#: GEMM path, so it is held to the benchmark oracle's tolerance, not to
#: bit identity.
PAIRS_RTOL, PAIRS_ATOL = 1e-9, 1e-12

_PROPERTY_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def panels(draw) -> np.ndarray:
    """Binary panels with off-word sample counts, planted monomorphic
    columns (all-zero and all-one) and single-SNP extremes."""
    n_samples = draw(st.integers(1, 140))
    n_snps = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    dense = np.random.default_rng(seed).integers(
        0, 2, size=(n_samples, n_snps)
    ).astype(np.uint8)
    for column in draw(st.lists(st.integers(0, n_snps - 1), max_size=3)):
        dense[:, column] = draw(st.sampled_from([0, 1]))
    return dense


def _banded_oracle(dense: np.ndarray, band: int | None) -> np.ndarray:
    """``ld_matrix`` with out-of-band cells NaN (never delivered or masked)."""
    expected = ld_matrix(dense)
    if band is None:
        return expected
    i, j = np.indices(expected.shape)
    return np.where(i - j <= band, expected, np.nan)


def _assembler(n: int):
    assembled = np.full((n, n), np.nan)

    def sink(i0, j0, block):
        assembled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

    return assembled, sink


@contextlib.contextmanager
def _source(dense, store_backed, budget, block_snps, banded=False):
    """``(data, memory_budget)`` for one run: the in-RAM panel, a packed
    ``PanelStore`` of it, or that store under its minimum budget."""
    if not store_backed:
        yield dense, None
        return
    with tempfile.TemporaryDirectory() as tmp:
        store = pack_panel(Path(tmp) / "panel.pnl", BitMatrix.from_dense(dense))
        try:
            yield store, (
                min_memory_budget(block_snps, store.row_nbytes, banded=banded)
                if budget else None
            )
        finally:
            store.close()


def _check_engine_run(engine, dense, band, block_snps, store_backed, budget):
    n = dense.shape[1]
    assembled, sink = _assembler(n)
    with _source(
        dense, store_backed, budget, block_snps, banded=band is not None
    ) as (data, memory_budget):
        report = run_engine(
            data, sink, engine=engine, band=band, block_snps=block_snps,
            n_workers=2, memory_budget=memory_budget,
        )
    assert report.complete
    assert report.engine_used == engine
    il = np.tril_indices(n)
    np.testing.assert_array_equal(
        assembled[il], _banded_oracle(dense, band)[il],
        err_msg=f"{engine} band={band} store={store_backed}",
    )


class TestEntryPointProperties:
    """Hypothesis-driven differential net over every public r² path.

    ``ld_cross``, ``stream_ld_blocks`` and ``run_engine`` under every
    executor, band shape (none, a window, a window ≥ n) and storage
    (in-RAM, packed ``PanelStore``, budgeted store) must be bit-identical
    to ``ld_matrix``; ``ld_pairs`` agrees within its documented tolerance.
    """

    @settings(max_examples=40, **_PROPERTY_SETTINGS)
    @given(dense=panels(), data=st.data())
    def test_ld_cross_and_pairs(self, dense, data):
        n = dense.shape[1]
        expected = ld_matrix(dense)
        split = data.draw(st.integers(0, n), label="split")
        left, right = dense[:, :split], dense[:, split:]
        if split and split < n:
            np.testing.assert_array_equal(
                ld_cross(left, right), expected[:split, split:]
            )
        pairs = np.array(
            data.draw(
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    min_size=1, max_size=20,
                ),
                label="pairs",
            )
        )
        assert_allclose_nan(
            ld_pairs(dense, pairs), expected[pairs[:, 0], pairs[:, 1]],
            rtol=PAIRS_RTOL, atol=PAIRS_ATOL,
        )

    @settings(max_examples=25, **_PROPERTY_SETTINGS)
    @given(
        dense=panels(),
        block_snps=st.integers(1, 12),
        store_backed=st.booleans(),
        budget=st.booleans(),
    )
    def test_stream_ld_blocks(self, dense, block_snps, store_backed, budget):
        n = dense.shape[1]
        assembled, sink = _assembler(n)
        with _source(dense, store_backed, budget, block_snps) as (
            data, memory_budget,
        ):
            stream_ld_blocks(
                data, sink, block_snps=block_snps, memory_budget=memory_budget
            )
        il = np.tril_indices(n)
        np.testing.assert_array_equal(assembled[il], ld_matrix(dense)[il])

    @pytest.mark.parametrize(
        ("engine", "examples"),
        [("serial", 30), ("threads", 20), ("processes", 8), ("persistent", 8)],
    )
    def test_run_engine(self, engine, examples):
        @settings(max_examples=examples, **_PROPERTY_SETTINGS)
        @given(
            dense=panels(),
            band=st.one_of(st.none(), st.integers(1, 12), st.just(10**6)),
            block_snps=st.integers(1, 12),
            store_backed=st.booleans(),
            budget=st.booleans(),
        )
        def check(dense, band, block_snps, store_backed, budget):
            _check_engine_run(
                engine, dense, band, block_snps, store_backed, budget
            )

        try:
            check()
        finally:
            stop_pools()
