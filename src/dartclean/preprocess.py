"""Gap filling, z-score normalization, and sliding-window extraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .series_io import FLAG_MISSING, FLAG_VALID, RawSeries

GAP_OBSERVED = 0
GAP_INTERPOLATED = 1


@dataclass
class NormStats:
    mean: float
    std: float  # population definition


@dataclass
class NormalizedSeries:
    values: np.ndarray        # dimensionless
    stats: NormStats
    gap_mask: np.ndarray      # GAP_OBSERVED / GAP_INTERPOLATED per sample


@dataclass
class WindowBatch:
    windows: np.ndarray   # [num_windows x w]
    origins: np.ndarray   # start index of each window in the source series
    window: int
    stride: int


def fill_gaps(series: RawSeries) -> RawSeries:
    """Linearly interpolate interior flagged runs; edge runs take the
    nearest valid value (backward-fill at the head, forward-fill at the tail).
    """
    flags = np.asarray(series.flags)
    valid = flags == FLAG_VALID
    if not valid.any():
        raise DataError("all samples flagged; nothing to interpolate from")
    values = np.asarray(series.values, dtype=float).copy()
    idx = np.arange(len(values))
    values[~valid] = np.interp(idx[~valid], idx[valid], values[valid])
    gap_mask = np.where(valid, GAP_OBSERVED, GAP_INTERPOLATED)
    return RawSeries(
        timestamps=series.timestamps,
        values=values,
        flags=np.full(len(values), FLAG_VALID),
        gap_mask=gap_mask,
    )


def zscore_normalize(series, stats: NormStats | None = None) -> NormalizedSeries:
    """(x - mean) / std with population std; supplied stats are reused
    verbatim so inference can share training-time statistics.
    """
    if isinstance(series, RawSeries):
        if np.any(series.flags != FLAG_VALID):
            raise DataError("normalize requires a gap-free series; run fill_gaps first")
        values = np.asarray(series.values, dtype=float)
        gap_mask = (series.gap_mask if series.gap_mask is not None
                    else np.zeros(len(values), dtype=int))
    else:
        values = np.asarray(series, dtype=float)
        gap_mask = np.zeros(len(values), dtype=int)
    if stats is None:
        std = float(values.std())
        if std <= 1e-12:
            raise DataError("degenerate series: standard deviation is ~0")
        stats = NormStats(mean=float(values.mean()), std=std)
    if stats.std <= 1e-12:
        raise DataError("degenerate normalization stats")
    normalized = (values - stats.mean) / stats.std
    return NormalizedSeries(values=normalized, stats=stats, gap_mask=gap_mask)


def make_windows(series, w: int = 48, s: int = 1) -> WindowBatch:
    """All overlapping windows of width w at stride s (copies, not views)."""
    values = series.values if isinstance(series, NormalizedSeries) else np.asarray(series, dtype=float)
    n = len(values)
    if w < 2:
        raise ConfigError("window size must be >= 2")
    if s < 1:
        raise ConfigError("stride must be >= 1")
    if n < w:
        raise DataError(f"series of length {n} is shorter than window {w}")
    origins = np.arange(0, n - w + 1, s)
    windows = sliding_window_view(values, w)[::s].copy()
    return WindowBatch(windows=windows, origins=origins, window=w, stride=s)


def denormalize(values, stats: NormStats) -> np.ndarray:
    """Exact affine inverse of zscore_normalize given the same stats."""
    if stats is None:
        raise DataError("normalization stats are required to denormalize")
    return np.asarray(values, dtype=float) * stats.std + stats.mean
