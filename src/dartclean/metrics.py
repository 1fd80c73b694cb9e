"""Evaluation metrics: event F1, temporal consistency, residual and
rate-of-change summaries, latent PCA projection, and the classical
rolling-median despiking baseline."""

from __future__ import annotations

import warnings

import numpy as np

from . import detector
from .errors import DataError

MERGE_GAP = 2         # predicted spike runs at most this many samples apart are one event
RESIDUAL_BOUND = 0.5  # metres


def match_events(predicted_segments, true_indices, tolerance: int = 2):
    """Greedy one-to-one matching of predicted segments to true events.

    A segment [s, e] matches a true event index i when the interval expanded
    by ``tolerance`` contains i; each segment in turn takes the unmatched
    such i nearest to s or e, the first of equals.  ``true_indices`` is
    ascending, as ``np.flatnonzero`` gives it.  Returns (tp, n_pred, n_true).
    """
    true_indices = np.asarray(true_indices)
    free = np.ones(len(true_indices), dtype=bool)
    for start, end in predicted_segments:
        lo, hi = np.searchsorted(true_indices, (start - tolerance, end + tolerance + 1))
        near = lo + np.flatnonzero(free[lo:hi])
        if near.size:
            idx = true_indices[near]
            free[near[np.argmin(np.minimum(np.abs(idx - start), np.abs(idx - end)))]] = False
    return int((~free).sum()), len(predicted_segments), len(true_indices)


def spike_f1(predicted_mask, true_spike_starts, tolerance: int = 2) -> dict:
    """Event-level precision/recall/F1 with +-tolerance sample matching."""
    segments = detector.merge_segments(predicted_mask, MERGE_GAP)
    tp, n_pred, n_true = match_events(segments, true_spike_starts, tolerance)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_true if n_true else 0.0
    denom = precision + recall
    f1 = 2.0 * precision * recall / denom if denom else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def temporal_consistency(x, xhat) -> float:
    """Pearson correlation of first differences."""
    if len(x) < 3 or len(x) != len(xhat):
        raise DataError("temporal consistency needs two equal series of length >= 3")
    dx = np.diff(x)
    dxhat = np.diff(xhat)
    if dx.std() <= 0 or dxhat.std() <= 0:
        raise DataError("zero-variance differences: correlation undefined")
    return float(np.corrcoef(dx, dxhat)[0, 1])


def residual_stats(raw, cleaned) -> dict:
    if raw.shape != cleaned.shape:
        raise DataError("residual stats need equal-length series")
    residual = raw - cleaned
    nonzero = residual[residual != 0.0]
    return {
        "max_abs": float(np.abs(residual).max()) if residual.size else 0.0,
        "fraction_within_bound": float(np.mean(np.abs(residual) <= RESIDUAL_BOUND)),
        "nonzero_fraction_within_bound": (
            float(np.mean(np.abs(nonzero) <= RESIDUAL_BOUND)) if nonzero.size else 1.0
        ),
        "nonzero_count": int(nonzero.size),
        "bound": RESIDUAL_BOUND,
    }


def rate_of_change(series, cadence_seconds: float) -> dict:
    """Least and greatest first difference, scaled to meters per minute."""
    if len(series) < 2:
        raise DataError("rate of change needs at least two samples")
    rate = np.diff(series) / cadence_seconds * 60.0
    return {"min": float(rate.min()), "max": float(rate.max())}


def project_latent(mu) -> np.ndarray:
    """Project latent means onto their top-two principal components.

    Returns the [n x 2] coordinates.  Rank-deficient covariance falls back
    to the first two centred coordinates, with a warning; a second column
    of zeros stands in for a latent width of 1.
    """
    if mu.ndim != 2 or mu.shape[0] < 3:
        raise DataError("latent projection needs at least 3 windows")
    centered = mu - mu.mean(axis=0)
    cov = centered.T @ centered / mu.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if mu.shape[1] < 2 or eigvals[1] <= 1e-300:
        warnings.warn("rank-deficient latent covariance; using coordinate axes")
        coords = np.zeros((mu.shape[0], 2))
        coords[:, :mu.shape[1]] = centered[:, :2]
        return coords
    return centered @ eigvecs[:, :2]


def baseline_rolling_median(series, config: detector.DetectConfig | None = None):
    """Classical despiker: replace rolling-median outliers by the median.

    Returns (cleaned series, spike mask).  Steps are left untouched.
    """
    config = config or detector.DetectConfig()
    med, std = detector.rolling_median_std(series, config.w_s)
    mask = detector.spike_deviation(series, config, (med, std)) > config.tau_s
    cleaned = series.copy()
    cleaned[mask] = med[mask]
    return cleaned, mask
