"""Tests for thread-level GEMM parallelization (repro.core.parallel)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.parallel import (
    partition_ranges,
    partition_triangle_rows,
    popcount_gemm_parallel,
)
from repro.encoding.bitmatrix import pack_bits
from repro.observe.spans import profiling
from tests.conftest import reference_counts


class TestPartitionRanges:
    @given(
        total=st.integers(min_value=0, max_value=500),
        parts=st.integers(min_value=1, max_value=20),
    )
    def test_covers_exactly_once(self, total, parts):
        ranges = partition_ranges(total, parts)
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == list(range(total))

    @given(
        total=st.integers(min_value=1, max_value=500),
        parts=st.integers(min_value=1, max_value=20),
    )
    def test_balanced(self, total, parts):
        sizes = [hi - lo for lo, hi in partition_ranges(total, parts)]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            partition_ranges(10, 0)
        with pytest.raises(ValueError):
            partition_ranges(-1, 2)


class TestPartitionTriangleRows:
    @given(
        m=st.integers(min_value=0, max_value=500),
        parts=st.integers(min_value=1, max_value=16),
    )
    def test_covers_exactly_once(self, m, parts):
        ranges = partition_triangle_rows(m, parts)
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == list(range(m))

    def test_balances_triangle_area(self):
        m, parts = 1000, 4
        ranges = partition_triangle_rows(m, parts)
        areas = [sum(i + 1 for i in range(lo, hi)) for lo, hi in ranges]
        total = m * (m + 1) // 2
        for area in areas:
            assert area == pytest.approx(total / parts, rel=0.15)

    @given(
        m=st.integers(min_value=0, max_value=2000),
        parts=st.integers(min_value=1, max_value=16),
    )
    def test_ranges_sorted_and_disjoint(self, m, parts):
        ranges = partition_triangle_rows(m, parts)
        assert all(lo < hi for lo, hi in ranges)
        assert all(prev[1] == nxt[0] for prev, nxt in zip(ranges, ranges[1:]))

    @given(
        m=st.integers(min_value=1, max_value=2000),
        parts=st.integers(min_value=1, max_value=16),
    )
    def test_balance_bounded_by_one_row(self, m, parts):
        """No part exceeds the ideal area by more than ~2 boundary rows.

        Boundaries are rounded to whole rows, so the worst-case excess per
        part is one row of at most m entries at each end.
        """
        ranges = partition_triangle_rows(m, parts)
        ideal = m * (m + 1) / 2 / parts
        for lo, hi in ranges:
            area = (hi * (hi + 1) - lo * (lo + 1)) // 2
            assert area <= ideal + 2 * m + 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            partition_triangle_rows(10, 0)
        with pytest.raises(ValueError):
            partition_triangle_rows(-1, 1)


class TestPopcountGemmParallel:
    @pytest.mark.parametrize("n_threads", [1, 2, 3, 7])
    def test_symmetric_matches_serial(self, rng, n_threads):
        dense = rng.integers(0, 2, size=(130, 23)).astype(np.uint8)
        words = pack_bits(dense)
        got = popcount_gemm_parallel(words, None, n_threads=n_threads)
        np.testing.assert_array_equal(got, reference_counts(dense))

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_symmetric_routes_through_gram(self, rng, n_threads):
        # Squares go to the Gram driver; no np.tril mirror copies remain.
        words = pack_bits(rng.integers(0, 2, size=(90, 40)).astype(np.uint8))
        with profiling() as profiler:
            popcount_gemm_parallel(words, None, n_threads=n_threads)
        totals = profiler.totals()
        assert totals["gram"]["count"] == n_threads
        assert ("gemm" in totals) == (n_threads > 1)

    @pytest.mark.parametrize("n_threads", [1, 2, 5])
    def test_cross_matches_serial(self, rng, n_threads):
        a = rng.integers(0, 2, size=(100, 17)).astype(np.uint8)
        b = rng.integers(0, 2, size=(100, 9)).astype(np.uint8)
        got = popcount_gemm_parallel(
            pack_bits(a), pack_bits(b), n_threads=n_threads
        )
        expected = np.rint(a.astype(float).T @ b.astype(float)).astype(np.int64)
        np.testing.assert_array_equal(got, expected)

    def test_more_threads_than_rows(self, rng):
        dense = rng.integers(0, 2, size=(64, 3)).astype(np.uint8)
        got = popcount_gemm_parallel(pack_bits(dense), None, n_threads=16)
        np.testing.assert_array_equal(got, reference_counts(dense))

    def test_rejects_non_positive_threads(self, rng):
        words = pack_bits(rng.integers(0, 2, size=(64, 3)).astype(np.uint8))
        with pytest.raises(ValueError, match="positive"):
            popcount_gemm_parallel(words, None, n_threads=0)

    def test_worker_exceptions_propagate(self):
        bad = np.zeros((4, 2), dtype=np.uint64)
        worse = np.zeros((4, 3), dtype=np.uint64)
        with pytest.raises(ValueError, match="word counts differ"):
            popcount_gemm_parallel(bad, worse, n_threads=2)
