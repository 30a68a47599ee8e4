"""Tests for banded/windowed LD (repro.core.windowed)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocking import BlockingParams
from repro.core.engine import enumerate_tiles
from repro.core.ldmatrix import ld_matrix
from repro.core.streaming import BandedNpySink
from repro.core.windowed import BandedLDMatrix, banded_ld, write_banded_block

SMALL_PARAMS = BlockingParams(mc=8, nc=8, kc=4, mr=4, nr=4)


class TestBandedLd:
    @pytest.mark.parametrize("stat", ["r2", "D", "H"])
    @pytest.mark.parametrize("window", [1, 3, 10, 52, 200])
    def test_matches_full_matrix_on_band(self, small_panel, stat, window):
        band = banded_ld(small_panel, window=window, stat=stat)
        full = ld_matrix(small_panel, stat=stat)
        n = small_panel.shape[1]
        for i in range(n):
            for d in range(min(window, n - 1 - i) + 1):
                got = band.values[i, d]
                expected = full[i, i + d]
                if np.isnan(expected):
                    assert np.isnan(got)
                else:
                    assert got == pytest.approx(expected, abs=1e-12)

    def test_out_of_band_entries_are_nan(self, small_panel):
        band = banded_ld(small_panel, window=5)
        n = small_panel.shape[1]
        # Tail rows have no pairs at large distances.
        assert np.isnan(band.values[n - 1, 1:]).all()
        assert np.isnan(band.values[n - 3, 3:]).all()

    @given(
        window=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_band_matches_full(self, window, seed):
        rng = np.random.default_rng(seed)
        panel = rng.integers(0, 2, size=(50, 20)).astype(np.uint8)
        band = banded_ld(panel, window=window, params=SMALL_PARAMS)
        full = ld_matrix(panel)
        dense = band.to_dense()
        for i in range(20):
            for j in range(20):
                if abs(i - j) <= window:
                    a, b = dense[i, j], full[i, j]
                    assert (np.isnan(a) and np.isnan(b)) or a == pytest.approx(
                        b, abs=1e-12
                    )
                else:
                    assert np.isnan(dense[i, j])

    def test_blocking_independent(self, small_panel):
        a = banded_ld(small_panel, window=7, params=SMALL_PARAMS)
        b = banded_ld(small_panel, window=7)
        np.testing.assert_allclose(
            np.nan_to_num(a.values), np.nan_to_num(b.values), atol=1e-12
        )

    def test_validation(self, small_panel):
        with pytest.raises(ValueError, match="window"):
            banded_ld(small_panel, window=0)
        with pytest.raises(ValueError, match="unknown LD statistic"):
            banded_ld(small_panel, window=2, stat="Dprime")


class TestBandedLDMatrix:
    @pytest.fixture
    def band(self, small_panel):
        return banded_ld(small_panel, window=6)

    def test_get_symmetric_access(self, band, small_panel):
        full = ld_matrix(small_panel)
        assert band.get(3, 8) == pytest.approx(full[3, 8], abs=1e-12)
        assert band.get(8, 3) == band.get(3, 8)

    def test_get_rejects_out_of_band(self, band):
        with pytest.raises(IndexError, match="band"):
            band.get(0, 10)
        with pytest.raises(IndexError, match="out of range"):
            band.get(0, 9999)

    def test_n_pairs(self, small_panel):
        band = banded_ld(small_panel, window=6)
        n = small_panel.shape[1]
        expected = sum(min(6, n - 1 - i) + 1 for i in range(n))
        assert band.n_pairs() == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    @pytest.mark.parametrize("window", [0, 1, 2, 6, 15, 16, 40])
    def test_n_pairs_closed_form_matches_brute_force(self, n, window):
        band = BandedLDMatrix(
            values=np.zeros((n, window + 1)), window=window, stat="r2"
        )
        brute = sum(
            1 for i in range(n) for j in range(i, n) if j - i <= window
        )
        assert band.n_pairs() == brute

    def test_mean_by_distance_shape(self, band):
        means = band.mean_by_distance()
        assert means.shape == (7,)
        assert means[0] == pytest.approx(1.0)  # diagonal r2 of polymorphic

    def test_to_dense_fill(self, band):
        dense = band.to_dense(fill=-1.0)
        assert dense[0, 20] == -1.0
        assert dense[20, 0] == -1.0

    def test_banded_work_is_linear_in_n(self, rng):
        """The banded path computes O(n*W), not O(n^2) — verified via the
        stored non-NaN entries."""
        panel = rng.integers(0, 2, size=(40, 120)).astype(np.uint8)
        band = banded_ld(panel, window=10)
        defined_slots = band.n_pairs()
        assert defined_slots < 120 * 121 // 2 / 4  # far fewer than all pairs


def _loop_write(values, window, i0, j0, block):
    """The per-column scatter ``write_banded_block`` replaced, kept as
    the reference the skewed-view write must reproduce exactly."""
    rows, cols = block.shape
    for b in range(cols):
        j = j0 + b
        lo = max(i0, j)
        hi = min(i0 + rows - 1, j + window)
        if hi < lo:
            continue
        d0 = lo - j
        values[j, d0 : d0 + hi - lo + 1] = block[lo - i0 : hi - i0 + 1, b]


SENTINEL = -7.25


def _guarded_store(n, width, guard_rows=2):
    """A ``(n, width)`` store carved from the interior of a larger flat
    buffer whose guard rows before and after hold ``SENTINEL``.

    Returns ``(flat, values, guard)``; every slot of *values* starts at a
    distinct negative value so any stray write is visible.
    """
    guard = guard_rows * width
    flat = np.full(2 * guard + n * width, SENTINEL)
    values = flat[guard : guard + n * width].reshape(n, width)
    values[:] = -1.0 - np.arange(n * width).reshape(n, width)
    assert values.flags.c_contiguous and values.base is not None
    return flat, values, guard


@st.composite
def _band_writes(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    # Store widths past n - 1 exercise slots no pair can ever reach.
    width = draw(st.integers(min_value=1, max_value=n + 3))
    window = draw(
        st.one_of(
            st.just(0),
            st.just(width - 1),
            st.integers(min_value=0, max_value=width - 1),
        )
    )
    tiles = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        j0 = draw(st.integers(min_value=0, max_value=n - 1))
        diagonal = draw(st.booleans())
        i0 = j0 if diagonal else draw(st.integers(min_value=j0, max_value=n - 1))
        rows = draw(st.integers(min_value=1, max_value=n - i0))
        cols = rows if diagonal and draw(st.booleans()) else draw(
            st.integers(min_value=1, max_value=n - j0)
        )
        tiles.append((i0, j0, rows, cols))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, width, window, tiles, seed


class TestWriteBandedBlock:
    """The skewed-view write: exactly the old per-column scatter, and no
    write outside the buffer or outside the band."""

    @given(case=_band_writes())
    @settings(max_examples=300, deadline=None)
    def test_matches_column_loop_and_stays_in_band(self, case):
        n, width, window, tiles, seed = case
        rng = np.random.default_rng(seed)
        flat, values, guard = _guarded_store(n, width)
        initial = values.copy()
        expected = values.copy()
        for i0, j0, rows, cols in tiles:
            block = rng.random((rows, cols))
            write_banded_block(values, window, i0, j0, block)
            _loop_write(expected, window, i0, j0, block)
            assert np.array_equal(values, expected)
        assert np.all(flat[:guard] == SENTINEL)
        assert np.all(flat[guard + n * width :] == SENTINEL)
        # Slot (j, d) is in band iff d <= window and the pair (j + d, j)
        # exists; nothing else may ever change.
        j, d = np.indices(values.shape)
        out_of_band = (d > window) | (j + d >= n)
        assert np.array_equal(values[out_of_band], initial[out_of_band])

    @pytest.mark.parametrize("window", [0, 1, 5, 13, 38])
    @pytest.mark.parametrize("block_snps", [1, 4, 7, 39])
    def test_every_dense_tile_delivers_the_band(self, window, block_snps):
        """A dense sweep delivers tiles wholly outside the band (the
        bench_banded dense run); the store must still hold exactly the
        band slice of the symmetric matrix and nothing else."""
        n = 38
        rng = np.random.default_rng(window * 100 + block_snps)
        full = rng.random((n, n))
        full = np.tril(full) + np.tril(full, -1).T
        flat, values, guard = _guarded_store(n, window + 1)
        values[:] = np.nan
        for tile in enumerate_tiles(n, block_snps):
            write_banded_block(
                values, window, tile.i0, tile.j0,
                full[tile.i0 : tile.i1, tile.j0 : tile.j1],
            )
        expected = np.full((n, window + 1), np.nan)
        for d in range(min(window, n - 1) + 1):
            expected[: n - d, d] = np.diagonal(full, -d)
        assert np.array_equal(values, expected, equal_nan=True)
        assert np.all(flat[:guard] == SENTINEL)
        assert np.all(flat[guard + values.size :] == SENTINEL)

    def test_rejects_non_contiguous_store(self):
        wide = np.full((8, 10), np.nan)
        for store in (wide[:, ::2], np.asfortranarray(wide[:, :5])):
            with pytest.raises(ValueError, match="C-contiguous"):
                write_banded_block(store, 4, 0, 0, np.zeros((2, 2)))

    def test_rejects_upper_triangle_origin(self):
        values = np.full((8, 5), np.nan)
        with pytest.raises(ValueError, match="lower triangle"):
            write_banded_block(values, 4, 2, 3, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="lower triangle"):
            write_banded_block(values, 4, 2, -1, np.zeros((2, 2)))

    def test_rejects_tile_past_last_row(self):
        values = np.full((8, 5), np.nan)
        with pytest.raises(ValueError, match="runs past"):
            write_banded_block(values, 4, 6, 4, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="runs past"):
            write_banded_block(values, 4, 7, 6, np.zeros((1, 3)))

    def test_rejects_window_wider_than_store(self):
        values = np.full((8, 5), np.nan)
        with pytest.raises(ValueError, match="does not fit"):
            write_banded_block(values, 5, 0, 0, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="does not fit"):
            write_banded_block(values, -1, 0, 0, np.zeros((2, 2)))

    def test_rejection_leaves_store_untouched(self):
        values = np.full((8, 5), np.nan)
        with pytest.raises(ValueError):
            write_banded_block(values, 4, 7, 6, np.ones((1, 3)))
        assert np.isnan(values).all()


class TestBandedNpySinkMemmap:
    """The sink hands ``write_banded_block`` an ``np.memmap``; its output
    must equal the same tiles written into an in-RAM store."""

    N, WINDOW, BLOCK = 45, 9, 8

    @pytest.fixture
    def deliveries(self):
        from repro.core.banding import BandSpec

        rng = np.random.default_rng(11)
        band = BandSpec(window=self.WINDOW)
        tiles = enumerate_tiles(self.N, self.BLOCK, band=band)
        return [
            (t.i0, t.j0, rng.random((t.i1 - t.i0, t.j1 - t.j0)))
            for t in tiles
        ]

    def _in_ram(self, deliveries):
        values = np.full((self.N, self.WINDOW + 1), np.nan)
        for i0, j0, block in deliveries:
            write_banded_block(values, self.WINDOW, i0, j0, block)
        return values

    def test_fresh_file_matches_in_ram(self, tmp_path, deliveries):
        path = tmp_path / "band.npy"
        with BandedNpySink(path, self.N, self.WINDOW) as sink:
            assert isinstance(sink._memmap, np.memmap)
            for i0, j0, block in deliveries:
                sink(i0, j0, block)
        assert np.array_equal(
            np.load(path), self._in_ram(deliveries), equal_nan=True
        )

    def test_reopen_resumes_half_the_tiles(self, tmp_path, deliveries):
        path = tmp_path / "band.npy"
        half = len(deliveries) // 2
        with BandedNpySink(path, self.N, self.WINDOW) as sink:
            for i0, j0, block in deliveries[:half]:
                sink(i0, j0, block)
        partial = np.load(path)
        assert np.array_equal(
            partial, self._in_ram(deliveries[:half]), equal_nan=True
        )
        with BandedNpySink(path, self.N, self.WINDOW, mode="r+") as sink:
            for i0, j0, block in deliveries[half:]:
                sink(i0, j0, block)
        assert np.array_equal(
            np.load(path), self._in_ram(deliveries), equal_nan=True
        )
