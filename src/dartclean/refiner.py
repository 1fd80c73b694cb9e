"""Iterative encode/decode refinement with latent blending and gated
correction.

Each round re-encodes the current series, blends latents with the previous
round, decodes, reassembles the full series by overlap-add, and then
replaces only the currently masked samples with the new candidate values.
Detection thresholds decay geometrically so later rounds pick up finer
anomalies.  Everything runs in infer mode, so the whole refinement is a
pure function of (model, input, masks, config).

Round 1 sees the unmodified input at undecayed thresholds, which is what
the initial detection pass computes; :func:`infer_pass` serves both, and
the pipeline hands its result to :func:`refine` instead of recomputing it.

Overlap-add is one ``np.bincount`` over the flattened window indices; see
:func:`windows_to_series` for why it equals slice-by-slice accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import detector
from .errors import ConfigError, DataError, NumericError
from .preprocess import make_windows


@dataclass
class RefineConfig:
    iterations: int = 10
    blend_alpha: float = 0.5
    threshold_decay: float = 0.95
    tolerance: float = 0.0       # mean |change| below this triggers early exit
    early_exit: bool = False
    keep_history: bool = False   # record (series, gate) per iteration

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("refinement needs at least one iteration")
        if not 0.0 <= self.blend_alpha <= 1.0:
            raise ConfigError("blend_alpha must lie in [0, 1]")
        if not 0.0 < self.threshold_decay <= 1.0:
            raise ConfigError("threshold_decay must lie in (0, 1]")


@dataclass
class IterationRecord:
    iteration: int
    mean_change: float
    masked_count: int
    max_correction: float


@dataclass
class RefineResult:
    series: np.ndarray
    spike_mask: np.ndarray
    step_mask: np.ndarray
    log: list = field(default_factory=list)
    history: list = field(default_factory=list)  # (series, gate) per iteration


@dataclass
class InferPass:
    """One infer-mode pass over a series."""
    z: np.ndarray            # latents of the stride-1 windows, blended if asked
    recon: np.ndarray        # decoded windows, overlap-added to series length
    deviation: np.ndarray    # rolling-median spike deviation of the input
    step_mask: np.ndarray    # point step mask of the input


def windows_to_series(window_values: np.ndarray, origins: np.ndarray, n: int) -> np.ndarray:
    """Uniform overlap-add: per-sample average of every covering window.

    ``np.bincount`` adds its weights in input order, so each sample sums
    its covering windows' values in row order, exactly as adding the rows
    one slice at a time would.
    """
    window_values = np.asarray(window_values, dtype=float)
    origins = np.asarray(origins, dtype=int)
    w = window_values.shape[1]
    if origins.size and (origins.min() < 0 or origins.max() + w > n):
        raise DataError(f"overlap-add: a window of {w} samples runs outside [0, {n})")
    index = (origins[:, None] + np.arange(w)).ravel()
    acc = np.bincount(index, weights=window_values.ravel(), minlength=n)
    count = np.bincount(index, minlength=n)
    if np.any(count == 0):
        raise DataError("overlap-add: some samples are covered by no window")
    return acc / count


def infer_pass(model, x: np.ndarray, detect_config: detector.DetectConfig,
               tau_l: float | None = None, prev_z: np.ndarray | None = None,
               blend_alpha: float = 1.0) -> InferPass:
    """Encode every stride-1 window of ``x``, blend the latents with
    ``prev_z`` if given, decode and overlap-add; run both detectors on ``x``
    (steps at ``tau_l``, default ``detect_config.tau_l``)."""
    batch = make_windows(x, w=model.config.window, s=1)
    latent, _ = model.encode(batch.windows, train=False)
    z = latent.z
    if prev_z is not None:
        z = blend_alpha * z + (1.0 - blend_alpha) * prev_z
    decoded, _ = model.decode(z, batch.windows, train=False)
    recon = windows_to_series(decoded, batch.origins, len(x))
    deviation = detector.spike_deviation(x, detect_config)
    step_mask, _ = detector.detect_steps(x, detect_config, tau_l=tau_l)
    return InferPass(z=z, recon=recon, deviation=deviation, step_mask=step_mask)


def refine(model, x_norm: np.ndarray, masks: detector.AnomalyMasks,
           detect_config: detector.DetectConfig,
           config: RefineConfig | None = None,
           first: InferPass | None = None) -> RefineResult:
    """Run the full refinement loop; see the module docstring.

    ``first``, if given, must be ``infer_pass(model, x_norm, detect_config)``;
    round 1 then reuses it instead of computing it again.
    """
    config = config or RefineConfig()
    x_norm = np.asarray(x_norm, dtype=float)
    n = len(x_norm)
    base_spike = np.asarray(masks.spike, dtype=bool)
    base_step = np.asarray(masks.step, dtype=bool)
    if len(base_spike) != n or len(base_step) != n:
        raise DataError("masks must match the series length")

    # nothing flagged means nothing to correct: the loop below would still
    # re-detect with decayed thresholds, so short-circuit to the identity
    if not base_spike.any() and not base_step.any():
        return RefineResult(series=x_norm.copy(), spike_mask=base_spike.copy(),
                            step_mask=base_step.copy(), log=[], history=[])

    current = x_norm.copy()
    prev_z = None
    spike_mask = base_spike.copy()
    step_mask = base_step.copy()
    log = []
    history = []
    for k in range(1, config.iterations + 1):
        decay = config.threshold_decay ** (k - 1)
        if k == 1 and first is not None:
            inferred = first
        else:
            inferred = infer_pass(model, current, detect_config,
                                  tau_l=detect_config.tau_l * decay, prev_z=prev_z,
                                  blend_alpha=config.blend_alpha)
        prev_z = inferred.z
        candidate = inferred.recon
        if not np.all(np.isfinite(candidate)):
            raise NumericError(f"non-finite reconstruction at iteration {k}")
        spike_mask = spike_mask | (inferred.deviation > detect_config.tau_s * decay)
        step_mask = step_mask | inferred.step_mask

        gate = spike_mask | step_mask
        nxt = np.where(gate, candidate, current)
        # per-iteration error |xhat_k - xhat_{k-1}| on the gated series
        change = np.abs(nxt - current)
        log.append(IterationRecord(
            iteration=k,
            mean_change=float(change.mean()),
            masked_count=int(gate.sum()),
            max_correction=float(change.max()) if n else 0.0,
        ))
        if config.keep_history:
            history.append((nxt.copy(), gate.copy()))
        current = nxt
        if config.early_exit and float(change.mean()) < config.tolerance:
            break
    return RefineResult(series=current, spike_mask=spike_mask,
                        step_mask=step_mask, log=log, history=history)


def iteration_log_rows(log) -> list:
    """Rows (iteration, mean_change, masked_count, max_correction) for CSV."""
    if not log:
        raise DataError("empty refinement log")
    return [(r.iteration, r.mean_change, r.masked_count, r.max_correction)
            for r in log]
