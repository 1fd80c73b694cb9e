"""Dual-scale anomaly detectors and the hybrid scoring rule.

Short windows (48 samples) catch impulsive spikes via rolling-median
deviation; long windows (480 samples) catch baseline steps via adjacent
mean shifts.  A convex combination of reconstruction error and statistical
deviation (weight 0.7 / 0.3) gives the hybrid anomaly score.

Both rolling statistics run on ``sliding_window_view`` rows and equal the
plain per-index slice computation bit for bit: a row of the view is a
contiguous run of the series, and NumPy reduces the last axis of a
C-ordered operand row by row with the same pairwise summation (and the
same partition for the median) it applies to a 1-D slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError

STD_FLOOR = 1e-8


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
        if self.w_s < 3 or self.w_l < 3:
            raise ConfigError("detection windows must be >= 3 samples")
        if self.tau_s <= 0 or self.tau_l <= 0 or self.kappa < 0:
            raise ConfigError("detection thresholds must be positive")
        if not 0.0 <= self.hybrid_alpha <= 1.0:
            raise ConfigError("hybrid_alpha must lie in [0, 1]")


@dataclass
class AnomalyMasks:
    spike: np.ndarray          # boolean, series length
    step: np.ndarray           # boolean, series length (point events)
    segments: list = field(default_factory=list)  # [(kind, start, end)]


def reconstruction_error(x: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Per-sample absolute reconstruction error |x - xhat|."""
    x = np.asarray(x, dtype=float)
    xhat = np.asarray(xhat, dtype=float)
    if x.shape != xhat.shape:
        raise DataError("reconstruction-error inputs must share a length")
    return np.abs(x - xhat)


def re_threshold(re: np.ndarray, kappa: float = 3.0):
    """Threshold tau = mean + kappa * population std; returns (tau, indices)."""
    re = np.asarray(re, dtype=float)
    if re.size == 0:
        raise DataError("empty reconstruction-error array")
    tau = float(re.mean() + kappa * re.std())
    return tau, np.flatnonzero(re > tau)


def _window_bounds(n: int, w: int):
    """Centered windows of nominal width w, clamped at the series edges."""
    idx = np.arange(n)
    lo = np.maximum(0, idx - w // 2)
    hi = np.minimum(n, idx + (w - w // 2))
    return lo, hi


def rolling_median_std(x: np.ndarray, w: int):
    """Centered rolling median and population std with edge clamping."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < w:
        raise DataError(f"series of length {n} shorter than window {w}")
    med = np.empty(n)
    std = np.empty(n)
    # index i's window is x[i - w//2 : i + w - w//2]; where it fits whole it
    # is row i - w//2 of the view, so only the w - 1 clamped edges loop
    first, last = w // 2, n - (w - w // 2)
    view = sliding_window_view(x, w)
    med[first:last + 1] = np.median(view, axis=1)
    std[first:last + 1] = view.std(axis=1)
    lo, hi = _window_bounds(n, w)
    for i in [*range(first), *range(last + 1, n)]:
        seg = x[lo[i]:hi[i]]
        med[i] = np.median(seg)
        std[i] = seg.std()
    return med, std


def spike_deviation(x: np.ndarray, config: DetectConfig) -> np.ndarray:
    """Rolling-median z-deviation |x - median| / max(std, floor)."""
    med, std = rolling_median_std(x, config.w_s)
    return np.abs(np.asarray(x, dtype=float) - med) / np.maximum(std, STD_FLOOR)


def detect_spikes(x: np.ndarray, config: DetectConfig, tau_s: float | None = None) -> np.ndarray:
    """Boolean spike mask: deviation from the rolling median beyond
    tau_s rolling standard deviations."""
    tau = config.tau_s if tau_s is None else tau_s
    return spike_deviation(x, config) > tau


def step_mean_shift(x: np.ndarray, w_l: int) -> np.ndarray:
    """|mean of trailing half-window - mean of leading half-window| at every
    index where both halves fit; NaN elsewhere."""
    x = np.asarray(x, dtype=float)
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
    """Point step mask plus per-step mean shift.

    Indices whose adjacent-window mean shift exceeds the threshold form
    contiguous runs; each run collapses to its argmax so a step is reported
    as a single location.  Returns (mask, delta_mu array).
    """
    tau = config.tau_l if tau_l is None else tau_l
    delta = step_mean_shift(x, config.w_l)
    exceed = np.zeros(len(delta), dtype=bool)
    valid = ~np.isnan(delta)
    exceed[valid] = delta[valid] > tau
    mask = np.zeros(len(delta), dtype=bool)
    for start, end in _true_runs(exceed):
        run = slice(start, end + 1)
        mask[start + int(np.argmax(delta[run]))] = True
    return mask, delta


def _minmax_scale(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    span = values.max() - values.min()
    if span <= 0:
        return np.zeros_like(values)
    return (values - values.min()) / span


def hybrid_score(re: np.ndarray, stat_dev: np.ndarray, hybrid_alpha: float = 0.7,
                 kappa: float = 3.0):
    """Convex combination of min-max scaled reconstruction error and
    statistical deviation; returns (score, threshold, anomaly indices)."""
    re = np.asarray(re, dtype=float)
    stat_dev = np.asarray(stat_dev, dtype=float)
    if re.shape != stat_dev.shape:
        raise DataError("hybrid components must share a length")
    score = hybrid_alpha * _minmax_scale(re) + (1.0 - hybrid_alpha) * _minmax_scale(stat_dev)
    threshold = float(score.mean() + kappa * score.std())
    return score, threshold, np.flatnonzero(score > threshold)


def _true_runs(mask: np.ndarray):
    """Maximal [start, end] (inclusive) runs of True values."""
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return []
    edges = np.diff(mask.astype(int))
    starts = list(np.flatnonzero(edges == 1) + 1)
    ends = list(np.flatnonzero(edges == -1))
    if mask[0]:
        starts.insert(0, 0)
    if mask[-1]:
        ends.append(len(mask) - 1)
    return list(zip(starts, ends))


def merge_segments(mask: np.ndarray, merge_gap: int = 0):
    """Maximal true-runs; runs separated by <= merge_gap false samples fuse."""
    runs = _true_runs(mask)
    if not runs:
        return []
    merged = [list(runs[0])]
    for start, end in runs[1:]:
        if start - merged[-1][1] - 1 <= merge_gap:
            merged[-1][1] = end
        else:
            merged.append([start, end])
    return [tuple(seg) for seg in merged]


def build_masks(spike_mask: np.ndarray, step_mask: np.ndarray,
                merge_gap: int = 0) -> AnomalyMasks:
    segments = [("spike", s, e) for s, e in merge_segments(spike_mask, merge_gap)]
    segments += [("step", s, e) for s, e in merge_segments(step_mask, merge_gap)]
    segments.sort(key=lambda seg: (seg[1], seg[2]))
    return AnomalyMasks(spike=np.asarray(spike_mask, dtype=bool),
                        step=np.asarray(step_mask, dtype=bool),
                        segments=segments)
