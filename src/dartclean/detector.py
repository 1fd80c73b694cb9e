"""Dual-scale anomaly detectors and the hybrid scoring rule.

Short windows (48 samples) catch impulsive spikes via rolling-median
deviation; long windows (480 samples) catch baseline steps via adjacent
mean shifts.  A convex combination of reconstruction error and statistical
deviation (weight 0.7 / 0.3) gives the hybrid anomaly score.

Both rolling statistics run on ``sliding_window_view`` rows, a block of
rows at a time on the calling thread.  The median is the middle of each
sorted row, or for even w the mean ``(a + b) / 2`` of the middle pair, as
``np.median`` averages it, so it equals the window's ``np.median`` in
value; only a zero median may take the other sign, which ``|x - median|``
cannot see.  A row holding a NaN sorts it last and gets a NaN median.
The std reduces the unsorted rows and equals the per-index slice's bit
for bit: a row of the view is a contiguous run of the series, and NumPy
reduces the last axis of a C-ordered operand row by row with the same
pairwise summation it applies to a 1-D slice.  Only the w - 1 windows
clamped at the series edges loop in Python, over slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .series_io import check_rules

STD_FLOOR = 1e-8
# rows of the sliding-window view per block of rolling_median_std: the sort
# copies every row it is given, and .std subtracts each row's mean in a new
# array, so whole-view calls would hold two [n x w] arrays.  Memory sets
# the size: at 4 096 rows of 48, the two block copies, not an infer pass,
# set a clean's peak
ROLLING_BLOCK_ROWS = 2048


@dataclass
class DetectConfig:
    w_s: int = 48
    w_l: int = 480
    tau_s: float = 3.0
    tau_l: float = 0.05
    kappa: float = 3.0
    hybrid_alpha: float = 0.7
    merge_gap: int = 2

    def __post_init__(self):
        check_rules(self, "detect", [
            (("w_s", "w_l"), lambda v: v >= 3, "an integer >= 3"),
            (("tau_s", "tau_l"), lambda v: v > 0, "a number > 0"),
            (("kappa",), lambda v: v >= 0, "a number >= 0"),
            (("hybrid_alpha",), lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
            (("merge_gap",), lambda v: v >= 0, "an integer >= 0"),
        ])


@dataclass
class AnomalyMasks:
    spike: np.ndarray          # boolean, series length
    step: np.ndarray           # boolean, series length (point events)
    segments: list = field(default_factory=list)  # [(kind, start, end)]


def rolling_median_std(x: np.ndarray, w: int):
    """Centered rolling median and population std with edge clamping."""
    n = len(x)
    if n < w:
        raise DataError(f"series of length {n} shorter than window {w}")
    med = np.empty(n)
    std = np.empty(n)
    # index i's window is x[i - w//2 : i + w - w//2]; where it fits whole it
    # is row i - w//2 of the view, so only the w - 1 clamped edges loop
    half = w // 2
    view = sliding_window_view(x, w)
    for lo in range(0, len(view), ROLLING_BLOCK_ROWS):
        rows = view[lo:lo + ROLLING_BLOCK_ROWS]
        at = slice(half + lo, half + lo + len(rows))
        s = np.sort(rows, axis=1)
        mid = s[:, half] if w % 2 else (s[:, half - 1] + s[:, half]) / 2
        med[at] = np.where(np.isnan(s[:, -1]), np.nan, mid)
        rows.std(axis=1, out=std[at])
    for i in [*range(half), *range(n - w + half + 1, n)]:
        seg = x[max(i - half, 0):i + w - half]
        med[i] = np.median(seg)
        std[i] = seg.std()
    return med, std


def spike_deviation(x: np.ndarray, config: DetectConfig, rolling=None) -> np.ndarray:
    """Rolling-median z-deviation |x - median| / max(std, floor), from
    ``rolling`` if the caller already has ``rolling_median_std(x, config.w_s)``."""
    med, std = rolling or rolling_median_std(x, config.w_s)
    return np.abs(x - med) / np.maximum(std, STD_FLOOR)


def step_mean_shift(x: np.ndarray, w_l: int) -> np.ndarray:
    """|mean of trailing half-window - mean of leading half-window| at every
    index where both halves fit; NaN elsewhere."""
    n = len(x)
    if n < w_l:
        raise DataError(f"series of length {n} shorter than window {w_l}")
    half = w_l // 2
    delta = np.full(n, np.nan)
    # means[j] is x[j:j + half].mean(); a running sum would round differently
    means = sliding_window_view(x, half).mean(axis=1)
    delta[half:n - half + 1] = np.abs(means[half:] - means[:n - 2 * half + 1])
    return delta


def detect_steps(x: np.ndarray, config: DetectConfig, tau_l: float | None = None):
    """Point step mask.

    Indices whose adjacent-window mean shift exceeds the threshold form
    contiguous runs; each run collapses to its argmax so a step is reported
    as a single location.
    """
    tau = config.tau_l if tau_l is None else tau_l
    delta = step_mean_shift(x, config.w_l)
    mask = np.zeros(len(delta), dtype=bool)
    for start, end in zip(*_true_runs(delta > tau)):   # NaN > tau is False
        mask[start + int(np.argmax(delta[start:end + 1]))] = True
    return mask


def _minmax_scale(values: np.ndarray) -> np.ndarray:
    span = values.max() - values.min()
    if span <= 0:
        return np.zeros_like(values)
    return (values - values.min()) / span


def hybrid_score(re: np.ndarray, stat_dev: np.ndarray, hybrid_alpha: float, kappa: float):
    """The mask where the convex combination of min-max scaled reconstruction
    error and statistical deviation exceeds its mean + kappa population std."""
    if re.shape != stat_dev.shape:
        raise DataError("hybrid components must share a length")
    score = hybrid_alpha * _minmax_scale(re) + (1.0 - hybrid_alpha) * _minmax_scale(stat_dev)
    return score > float(score.mean() + kappa * score.std())


def _true_runs(mask: np.ndarray):
    """(starts, ends): arrays of the first and last index of each maximal
    run of True values."""
    edges = np.diff(np.asarray(mask, dtype=np.int8), prepend=0, append=0)
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1


def merge_segments(mask: np.ndarray, merge_gap: int):
    """Maximal true-runs; runs separated by <= merge_gap false samples fuse."""
    starts, ends = _true_runs(mask)
    # run k + 1 opens a segment when more than merge_gap samples part it from run k
    split = starts[1:] - ends[:-1] > merge_gap + 1
    return list(zip(np.append(starts[:1], starts[1:][split]).tolist(),
                    np.append(ends[:-1][split], ends[-1:]).tolist()))


def build_masks(spike_mask: np.ndarray, step_mask: np.ndarray, merge_gap: int) -> AnomalyMasks:
    segments = [("spike", s, e) for s, e in merge_segments(spike_mask, merge_gap)]
    segments += [("step", s, e) for s, e in merge_segments(step_mask, merge_gap)]
    segments.sort(key=lambda seg: (seg[1], seg[2]))
    return AnomalyMasks(spike=spike_mask, step=step_mask, segments=segments)
