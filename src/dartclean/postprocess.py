"""Final-stage cleanup: Gaussian smoothing, step validation and baseline
realignment, and denormalization back to meters.

Smoothing takes one ``np.vecdot`` of each whole-kernel window (a
``sliding_window_view`` row) with the taps.  For float64 that is one BLAS
``ddot`` per row, the same call ``np.dot`` makes on a single window, so the
result equals the per-index convolution bit for bit; a matrix-vector
product or a tap-by-tap sum of shifted slices rounds differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detector import step_mean_shift
from .errors import DataError
from .series_io import check_rules


@dataclass
class SmoothConfig:
    window: int = 6
    sigma: float = 1.5

    def __post_init__(self):
        check_rules(self, "smooth", [
            (("window",), lambda v: v >= 2, "an integer >= 2"),
            (("sigma",), lambda v: v > 0, "a number > 0"),
        ])


def gaussian_kernel(window: int, sigma: float) -> np.ndarray:
    """Discrete Gaussian taps at offsets centered on zero, summing to 1."""
    offsets = np.arange(window) - window // 2
    weights = np.exp(-0.5 * (offsets / sigma) ** 2)
    return weights / weights.sum()


def gaussian_smooth(x: np.ndarray, config: SmoothConfig | None = None) -> np.ndarray:
    """Convolve with the normalized kernel; edge windows renormalize over
    the in-bounds taps so constants pass through exactly."""
    config = config or SmoothConfig()
    n = len(x)
    w = config.window
    if n < w:
        raise DataError(f"series of length {n} shorter than smoothing window {w}")
    kernel = gaussian_kernel(w, config.sigma)
    offsets = np.arange(w) - w // 2
    out = np.empty(n)
    # sample i sees every tap for w//2 <= i <= n - w + w//2: row i - w//2
    first, last = w // 2, n - w + w // 2
    out[first:last + 1] = np.vecdot(sliding_window_view(x, w), kernel) / kernel.sum()
    for i in [*range(first), *range(last + 1, n)]:
        pos = i + offsets
        inside = (pos >= 0) & (pos < n)
        taps = kernel[inside]
        out[i] = float(np.dot(taps, x[pos[inside]]) / taps.sum())
    return out


def validate_steps(x: np.ndarray, step_mask: np.ndarray, spike_mask: np.ndarray,
                   w_l: int, tau_l: float, w_s: int):
    """Keep a step only if its mean shift (``detector.step_mean_shift``)
    persists on the refined series and no spike sits within w_s samples of
    it.  Steps too close to the series edge for the half-window are
    retained unvalidated.

    Returns (validated mask, warning indices for edge-retained steps).
    """
    n, half = len(x), w_l // 2
    steps = np.flatnonzero(step_mask)
    edge = (steps < half) | (steps + half > n)
    keep = edge.copy()
    inner = steps[~edge]
    if inner.size:   # then n >= 2 * half, as the kernel needs
        spikes = np.concatenate(([0], np.cumsum(spike_mask)))   # spikes before each index
        near_spike = spikes[np.minimum(inner + w_s + 1, n)] > spikes[np.maximum(inner - w_s, 0)]
        keep[~edge] = ~(step_mean_shift(x, 2 * half)[inner] < tau_l) & ~near_spike
    validated = np.zeros(n, dtype=bool)
    validated[steps[keep]] = True
    return validated, steps[edge].tolist()


def realign_steps(x: np.ndarray, step_mask: np.ndarray, w_l: int) -> np.ndarray:
    """Remove validated level shifts by subtracting each step's measured
    mean offset from the samples that follow it.

    Steps are processed left to right with the offsets re-measured on the
    partially corrected series, so consecutive shifts compose correctly.
    """
    x = x.copy()
    n = len(x)
    half = w_l // 2
    for i in np.flatnonzero(step_mask):
        lo = max(0, i - half)
        hi = min(n, i + half)
        if i - lo < 2 or hi - i < 2:
            continue
        offset = x[i:hi].mean() - x[lo:i].mean()
        x[i:] -= offset
    return x


def denormalize(values, stats) -> np.ndarray:
    """Exact affine inverse of zscore_normalize given the same stats."""
    if stats is None:
        raise DataError("normalization stats are required to denormalize")
    return values * stats.std + stats.mean
