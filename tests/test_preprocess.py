import numpy as np
import pytest

from dartclean.errors import DataError
from dartclean.postprocess import denormalize
from dartclean.preprocess import (
    NormStats,
    fill_gaps,
    make_windows,
    zscore_normalize,
)
from dartclean.series_io import FLAG_MISSING, FLAG_VALID, RawSeries
from tests.oracles import overlap_add


def _series(values, flags=None):
    values = np.asarray(values, dtype=float)
    if flags is None:
        flags = np.full(len(values), FLAG_VALID)
    return RawSeries(timestamps=np.arange(len(values), dtype=float),
                     values=values, flags=np.asarray(flags))


class TestFillGaps:
    def test_interior_midpoint(self):
        out = fill_gaps(_series([1, 0, 3], [FLAG_VALID, FLAG_MISSING, FLAG_VALID]))
        assert np.array_equal(out.values, [1, 2, 3])

    def test_leading_backfill(self):
        out = fill_gaps(_series([0, 0, 5, 7],
                                [FLAG_MISSING, FLAG_MISSING, FLAG_VALID, FLAG_VALID]))
        assert np.array_equal(out.values, [5, 5, 5, 7])

    def test_trailing_forward_fill(self):
        out = fill_gaps(_series([1, 3, 0], [FLAG_VALID, FLAG_VALID, FLAG_MISSING]))
        assert np.array_equal(out.values, [1, 3, 3])

    def test_all_flagged_rejected(self):
        with pytest.raises(DataError):
            fill_gaps(_series([0, 0], [FLAG_MISSING, FLAG_MISSING]))

    def test_observed_samples_untouched(self, rng):
        values = rng.normal(size=500)
        flags = np.full(500, FLAG_VALID)
        gaps = rng.choice(500, size=50, replace=False)
        flags[gaps] = FLAG_MISSING
        flags[0] = flags[-1] = FLAG_VALID
        out = fill_gaps(_series(values, flags))
        observed = flags == FLAG_VALID
        assert np.array_equal(out.values[observed], values[observed])

    def test_matches_per_gap_closed_form(self, rng):
        # 10% seeded gaps vs. an explicit per-gap line equation
        n = 1000
        values = rng.normal(size=n)
        flags = np.full(n, FLAG_VALID)
        gaps = rng.choice(np.arange(1, n - 1), size=100, replace=False)
        flags[gaps] = FLAG_MISSING
        out = fill_gaps(_series(values, flags))
        valid_idx = np.flatnonzero(flags == FLAG_VALID)
        for i in np.flatnonzero(flags == FLAG_MISSING):
            left = valid_idx[valid_idx < i].max()
            right = valid_idx[valid_idx > i].min()
            expect = values[left] + (values[right] - values[left]) * (i - left) / (right - left)
            assert abs(out.values[i] - expect) <= 1e-12


class TestZscoreNormalize:
    def test_simple_case(self):
        norm = zscore_normalize(_series([1.0, 2.0, 3.0]))
        assert norm.stats.mean == 2.0
        assert abs(norm.stats.std - 0.816497) < 1e-6
        assert np.allclose(norm.values, [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_constant_series_rejected(self):
        with pytest.raises(DataError, match="standard deviation"):
            zscore_normalize(_series(np.full(10, 4.2)))

    def test_self_computed_moments(self, rng):
        norm = zscore_normalize(_series(rng.normal(2584.0, 0.4, 5000)))
        assert abs(norm.values.mean()) <= 1e-12
        assert abs(norm.values.std() - 1.0) <= 1e-9

    def test_supplied_stats_reused_verbatim(self):
        stats = NormStats(mean=10.0, std=2.0)
        norm = zscore_normalize(_series([10.0, 12.0, 14.0]), stats)
        assert np.array_equal(norm.values, [0.0, 1.0, 2.0])
        assert norm.stats is stats

    def test_flagged_series_rejected(self):
        series = _series([1, 2, 3], [FLAG_VALID, FLAG_MISSING, FLAG_VALID])
        with pytest.raises(DataError):
            zscore_normalize(series)

    def test_invertibility(self, rng):
        x = rng.normal(2584.0, 0.4, 300)
        norm = zscore_normalize(_series(x))
        assert np.max(np.abs(denormalize(norm.values, norm.stats) - x)) <= 1e-9


class TestMakeWindows:
    def test_counts_and_origins(self):
        windows = make_windows(np.arange(50.0), w=48)
        assert windows.shape == (3, 48)
        assert list(windows[:, 0]) == [0.0, 1.0, 2.0]

    def test_single_window(self):
        x = np.arange(48.0)
        windows = make_windows(x, w=48)
        assert windows.shape == (1, 48)
        assert np.array_equal(windows[0], x)

    def test_windows_are_exact_slices(self, rng):
        x = rng.normal(size=100)
        windows = make_windows(x, w=16)
        for origin, row in enumerate(windows):
            assert np.array_equal(row, x[origin:origin + 16])

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="series of length 10 is shorter than window 48"):
            make_windows(np.arange(10.0), w=48)

    def test_mutating_batch_leaves_source_alone(self, rng):
        x = rng.normal(size=60)
        snapshot = x.copy()
        windows = make_windows(x, w=12)
        with pytest.raises(ValueError):
            windows += 100.0
        batch = windows[[0, 3, 5]]
        batch += 100.0
        assert np.array_equal(x, snapshot)

    def test_overlap_add_identity(self, rng):
        x = rng.normal(size=300)
        windows = make_windows(x, w=48)
        back = overlap_add(windows, np.arange(len(windows)), len(x))
        assert np.max(np.abs(back - x)) <= 1e-9


class TestDenormalize:
    def test_zero_maps_to_mean(self):
        out = denormalize(np.zeros(5), NormStats(mean=2584.0, std=0.5))
        assert np.array_equal(out, np.full(5, 2584.0))

    def test_unit_value(self):
        assert denormalize(np.array([1.0]), NormStats(2584.0, 0.5))[0] == 2584.5

    def test_missing_stats_rejected(self):
        with pytest.raises(DataError):
            denormalize(np.zeros(3), None)
