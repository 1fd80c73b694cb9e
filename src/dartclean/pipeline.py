"""End-to-end cleaning: preprocess -> detect -> refine -> postprocess.

Ties the stage modules together for the CLI and the benchmark suite.  The
reported spike mask is the hybrid-score detection (reconstruction error
blended with rolling-median deviation); the reported step mask is the
post-refinement validated set that actually drove baseline realignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import detector, postprocess, refiner
from .preprocess import NormStats, fill_gaps, zscore_normalize
from .series_io import CleanedOutput, RawSeries


@dataclass
class CleanResult:
    output: CleanedOutput
    spike_mask: np.ndarray
    step_mask: np.ndarray           # validated step locations
    segments: list
    refine_log: list
    normalized_input: np.ndarray
    step_warnings: list = field(default_factory=list)
    refine_history: list = field(default_factory=list)   # (series, gate) per iteration


def detect_anomalies(model, x_norm: np.ndarray, config: detector.DetectConfig):
    """Initial detection pass; returns (masks, hybrid score, per-sample RE,
    the :class:`refiner.InferPass` of ``x_norm``, for refinement round 1)."""
    first = refiner.infer_pass(model, x_norm, config)
    re = detector.reconstruction_error(x_norm, first.recon)
    score, _, hybrid_idx = detector.hybrid_score(re, first.deviation,
                                                 config.hybrid_alpha, config.kappa)
    spike_mask = np.zeros(len(x_norm), dtype=bool)
    spike_mask[hybrid_idx] = True
    masks = detector.build_masks(spike_mask, first.step_mask, config.merge_gap)
    return masks, score, re, first


def clean_series(model, stats: NormStats, raw: RawSeries,
                 detect_config: detector.DetectConfig | None = None,
                 refine_config: refiner.RefineConfig | None = None,
                 smooth_config: postprocess.SmoothConfig | None = None,
                 realign: bool = True) -> CleanResult:
    detect_config = detect_config or detector.DetectConfig()
    refine_config = refine_config or refiner.RefineConfig()
    smooth_config = smooth_config or postprocess.SmoothConfig()

    filled = fill_gaps(raw)
    norm = zscore_normalize(filled, stats)
    x_norm = norm.values

    masks, _, _, first = detect_anomalies(model, x_norm, detect_config)
    result = refiner.refine(model, x_norm, masks, detect_config, refine_config, first)

    validated, warned = postprocess.validate_steps(
        result.series, result.step_mask, masks.spike,
        w_l=detect_config.w_l, tau_l=detect_config.tau_l, w_s=detect_config.w_s,
    )
    series = result.series
    if realign:
        series = postprocess.realign_steps(series, validated, w_l=detect_config.w_l)
    series = postprocess.gaussian_smooth(series, smooth_config)
    cleaned = postprocess.denormalize(series, stats)

    anomaly = detector.build_masks(masks.spike, validated, detect_config.merge_gap)
    output = CleanedOutput(
        timestamps=raw.timestamps,
        raw=filled.values,
        cleaned=cleaned,
        spike=masks.spike.astype(int),
        step=validated.astype(int),
    )
    return CleanResult(
        output=output,
        spike_mask=masks.spike,
        step_mask=validated,
        segments=anomaly.segments,
        refine_log=result.log,
        normalized_input=x_norm,
        step_warnings=warned,
        refine_history=result.history,
    )


def label_windows(origins: np.ndarray, window: int, segments) -> np.ndarray:
    """1 where a window overlaps any anomaly segment, else 0."""
    labels = np.zeros(len(origins), dtype=int)
    for _, start, end in segments:
        overlap = (origins <= end) & (origins + window - 1 >= start)
        labels[overlap] = 1
    return labels
