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

A pass never holds the windows or the decoded windows whole:
:meth:`Vae.infer_series` overlap-adds each decoded row block into the
series as it goes, and writes each round's blended latents over the
previous round's, so a refinement holds one [windows x latent] array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import detector
from .errors import DataError
from .series_io import check_rules


@dataclass
class RefineConfig:
    iterations: int = 10
    blend_alpha: float = 0.5
    threshold_decay: float = 0.95
    tolerance: float = 0.0       # stop once the mean |change| falls below this
    keep_history: bool = False   # record (series, gate) per iteration

    def __post_init__(self):
        check_rules(self, "refine", [
            (("iterations",), lambda v: v >= 1, "an integer >= 1"),
            (("blend_alpha",), lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
            (("threshold_decay",), lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"),
        ])


@dataclass
class IterationRecord:
    iteration: int
    mean_change: float
    masked_count: int
    max_correction: float


@dataclass
class RefineResult:
    series: np.ndarray
    step_mask: np.ndarray
    log: list = field(default_factory=list)
    history: list = field(default_factory=list)  # (series, gate) per iteration


@dataclass
class InferPass:
    """One infer-mode pass over a series.  :func:`refine` sets ``recon``
    and ``deviation`` to None once its round has read them, the ``first``
    pass it is given included, so no later pass runs beside them."""
    z: np.ndarray                    # latents of the stride-1 windows, blended if asked
    recon: np.ndarray | None         # decoded windows, overlap-added to series length
    deviation: np.ndarray | None     # rolling-median spike deviation of the input
    step_mask: np.ndarray    # point step mask of the input


def infer_pass(model, x: np.ndarray, detect_config: detector.DetectConfig,
               tau_l: float | None = None, prev_z: np.ndarray | None = None,
               blend_alpha: float = 1.0) -> InferPass:
    """Encode every stride-1 window of ``x``, blend the latents into
    ``prev_z`` if given, decode and overlap-add; run both detectors on ``x``
    (steps at ``tau_l``, default ``detect_config.tau_l``)."""
    z, recon = model.infer_series(x, prev_z, blend_alpha)
    deviation = detector.spike_deviation(x, detect_config)
    step_mask = detector.detect_steps(x, detect_config, tau_l=tau_l)
    return InferPass(z=z, recon=recon, deviation=deviation, step_mask=step_mask)


def refine(model, x_norm: np.ndarray, masks: detector.AnomalyMasks,
           detect_config: detector.DetectConfig,
           config: RefineConfig | None = None,
           first: InferPass | None = None) -> RefineResult:
    """Run the full refinement loop; see the module docstring.

    ``first``, if given, must be ``infer_pass(model, x_norm, detect_config)``;
    round 1 then reuses it instead of computing it again and drops its
    recon and deviation, and round 2 overwrites its z.
    """
    config = config or RefineConfig()
    n = len(x_norm)
    spike_mask, step_mask = masks.spike, masks.step
    if len(spike_mask) != n or len(step_mask) != n:
        raise DataError("masks must match the series length")

    # nothing flagged means nothing to correct: the loop below would still
    # re-detect with decayed thresholds, so short-circuit to the identity
    if not spike_mask.any() and not step_mask.any():
        return RefineResult(series=x_norm.copy(), step_mask=step_mask.copy())

    # each round makes new series and mask arrays, and leaves the inputs alone
    current, prev_z = x_norm, None
    log, history = [], []
    for k in range(1, config.iterations + 1):
        decay = config.threshold_decay ** (k - 1)
        if k == 1 and first is not None:
            inferred = first
        else:
            inferred = infer_pass(model, current, detect_config,
                                  tau_l=detect_config.tau_l * decay, prev_z=prev_z,
                                  blend_alpha=config.blend_alpha)
        prev_z = inferred.z
        spike_mask = spike_mask | (inferred.deviation > detect_config.tau_s * decay)
        step_mask = step_mask | inferred.step_mask

        gate = spike_mask | step_mask
        nxt = np.where(gate, inferred.recon, current)
        # the pass's series arrays are spent, so the next pass runs without
        # them; ``first``'s too, though the caller holds it
        inferred.recon = inferred.deviation = None
        # per-iteration error |xhat_k - xhat_{k-1}| on the gated series
        change = nxt - current
        np.abs(change, out=change)
        mean_change = float(change.mean())
        log.append(IterationRecord(iteration=k, mean_change=mean_change,
                                   masked_count=int(gate.sum()),
                                   max_correction=float(change.max()) if n else 0.0))
        if config.keep_history:
            history.append((nxt.copy(), gate.copy()))
        current = nxt
        if mean_change < config.tolerance:   # never below the default 0.0
            break
    return RefineResult(series=current, step_mask=step_mask, log=log, history=history)
