"""Gap filling, z-score normalization, and sliding-window extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .series_io import FLAG_VALID, RawSeries


@dataclass
class NormStats:
    mean: float
    std: float  # population definition


@dataclass
class NormalizedSeries:
    values: np.ndarray        # dimensionless
    stats: NormStats


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
    return RawSeries(
        timestamps=series.timestamps,
        values=values,
        flags=np.full(len(values), FLAG_VALID),
    )


def zscore_normalize(series: RawSeries, stats: NormStats | None = None) -> NormalizedSeries:
    """(x - mean) / std with population std; supplied stats are reused
    verbatim so inference can share training-time statistics.
    """
    if np.any(series.flags != FLAG_VALID):
        raise DataError("normalize requires a gap-free series; run fill_gaps first")
    values = np.asarray(series.values, dtype=float)
    if stats is None:
        std = float(values.std())
        if std <= 1e-12:
            raise DataError("degenerate series: standard deviation is ~0")
        stats = NormStats(mean=float(values.mean()), std=std)
    if not (math.isfinite(stats.mean) and math.isfinite(stats.std) and stats.std > 1e-12):
        raise DataError(f"normalization stats need a finite mean and std > 1e-12, got {stats}")
    return NormalizedSeries(values=(values - stats.mean) / stats.std, stats=stats)


def make_windows(values: np.ndarray, w: int) -> np.ndarray:
    """All stride-1 windows of width w as a read-only [n - w + 1 x w] view
    of ``values``; row i starts at sample i. Callers that write copy rows."""
    if len(values) < w:
        raise DataError(f"series of length {len(values)} is shorter than window {w}")
    return sliding_window_view(values, w)
