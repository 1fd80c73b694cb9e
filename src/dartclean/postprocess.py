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

from .errors import ConfigError, DataError
from .preprocess import denormalize  # re-exported: the pipeline's last stage

__all__ = [
    "SmoothConfig", "gaussian_smooth", "validate_steps", "realign_steps",
    "denormalize",
]


@dataclass
class SmoothConfig:
    window: int = 6
    sigma: float = 1.5

    def __post_init__(self):
        if self.window < 2:
            raise ConfigError("smoothing window must be >= 2")
        if self.sigma <= 0:
            raise ConfigError("smoothing sigma must be > 0")


def gaussian_kernel(window: int, sigma: float) -> np.ndarray:
    """Discrete Gaussian taps at offsets centered on zero, summing to 1."""
    offsets = np.arange(window) - window // 2
    weights = np.exp(-0.5 * (offsets / sigma) ** 2)
    return weights / weights.sum()


def gaussian_smooth(x: np.ndarray, config: SmoothConfig | None = None) -> np.ndarray:
    """Convolve with the normalized kernel; edge windows renormalize over
    the in-bounds taps so constants pass through exactly."""
    config = config or SmoothConfig()
    x = np.asarray(x, dtype=float)
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
                   w_l: int = 480, tau_l: float = 0.05, w_s: int = 48):
    """Keep a step only if its mean shift persists on the refined series and
    no spike segment sits within w_s samples of it.  Steps too close to the
    series edge for the half-window are retained unvalidated.

    Returns (validated mask, warning indices for edge-retained steps).
    """
    x = np.asarray(x, dtype=float)
    step_mask = np.asarray(step_mask, dtype=bool)
    spike_mask = np.asarray(spike_mask, dtype=bool)
    n = len(x)
    half = w_l // 2
    validated = np.zeros(n, dtype=bool)
    warned = []
    spike_idx = np.flatnonzero(spike_mask)
    for i in np.flatnonzero(step_mask):
        if i - half < 0 or i + half > n:
            validated[i] = True
            warned.append(int(i))
            continue
        shift = abs(x[i:i + half].mean() - x[i - half:i].mean())
        if shift < tau_l:
            continue
        if spike_idx.size and np.any(np.abs(spike_idx - i) <= w_s):
            continue
        validated[i] = True
    return validated, warned


def realign_steps(x: np.ndarray, step_mask: np.ndarray, w_l: int = 480) -> np.ndarray:
    """Remove validated level shifts by subtracting each step's measured
    mean offset from the samples that follow it.

    Steps are processed left to right with the offsets re-measured on the
    partially corrected series, so consecutive shifts compose correctly.
    """
    x = np.asarray(x, dtype=float).copy()
    n = len(x)
    half = w_l // 2
    for i in np.flatnonzero(np.asarray(step_mask, dtype=bool)):
        lo = max(0, i - half)
        hi = min(n, i + half)
        if i - lo < 2 or hi - i < 2:
            continue
        offset = x[i:hi].mean() - x[lo:i].mean()
        x[i:] -= offset
    return x
