"""Reference implementations the package is compared against, bit for bit.

The layer and model oracles are the cached forward and backward as they
were before the in-place training step and the row-blocked inference
forward: allocating dense, batch-norm, ReLU and dropout layers, each with
a ``train`` flag, so ``train=False`` is the old infer-mode forward (frozen
batch norm, no dropout, eps = 0).  The windowing and overlap-add oracles
are the plain slice loops; with the cached infer-mode forward they make up
the windowed refinement pass that :meth:`Vae.infer_series` streams.
The learning-rate oracle is ``LrSchedule.lr_at``, of the class that copied
five ``TrainConfig`` fields before ``optim.learning_rate`` read the config.
The two CSV reader oracles are the row-by-row readers the array reader of
``series_io`` replaced, reading text instead of a path or a stream.  The
rate-of-change oracle is the per-sample rate that
``metrics.rate_of_change`` summarises to its least and greatest value.
The event matcher is the nested loop over segments and all true events
that ``metrics.match_events`` replaced, and the hybrid-score oracle is
``detector.hybrid_score`` as it was when it returned the score and the
indices above its threshold.
"""

import csv
import io
import math
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from dartclean import detector, refiner
from dartclean.errors import ConfigError, DataError, NumericError, ParseError
from dartclean.series_io import CSV_HEADER, CleanedOutput
from dartclean.layers import dropout_rate
from dartclean.model import LOGVAR_CLIP, LatentState
from dartclean.optim import LR_FLOOR

ISO_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


# ------------------------------------------------------------------ layers

def oracle_dense_forward(dense, x):
    return x @ dense.W.T + dense.b, x


def oracle_dense_backward(dense, gy, x):
    return gy @ dense.W, {"W": gy.T @ x, "b": gy.sum(axis=0)}


def oracle_bn_forward(bn, x, train):
    if train:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        bn.running_mean[...] = bn.momentum * bn.running_mean + (1 - bn.momentum) * mean
        bn.running_var[...] = bn.momentum * bn.running_var + (1 - bn.momentum) * var
    else:
        mean = bn.running_mean
        var = bn.running_var
    inv_std = 1.0 / np.sqrt(var + bn.eps)
    xhat = (x - mean) * inv_std
    y = bn.gamma * xhat + bn.shift
    return y, (xhat, inv_std, train)


def oracle_bn_backward(bn, gy, cache):
    xhat, inv_std, train = cache
    ggamma = (gy * xhat).sum(axis=0)
    gshift = gy.sum(axis=0)
    gxhat = gy * bn.gamma
    if train:
        n = gy.shape[0]
        gx = (inv_std / n) * (
            n * gxhat - gxhat.sum(axis=0) - xhat * (gxhat * xhat).sum(axis=0)
        )
    else:
        gx = gxhat * inv_std
    return gx, {"gamma": ggamma, "shift": gshift}


def oracle_relu_forward(x):
    return np.maximum(x, 0.0), x > 0


def oracle_dropout_forward(x, p, train, rng):
    if not train or rng is None or p <= 0.0:
        return x, None
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)
    return x * keep * scale, (keep, scale)


def oracle_dropout_backward(gy, cache):
    if cache is None:
        return gy
    keep, scale = cache
    return gy * keep * scale


# ------------------------------------------------------------------- model

def oracle_encode(model, X, train, rng=None, eps=None):
    h = X
    caches = []
    for i, (dn, bn) in enumerate(zip(model.enc_dense, model.enc_bn)):
        u, c_dense = oracle_dense_forward(dn, h)
        v, c_bn = oracle_bn_forward(bn, u, train)
        a, c_relu = oracle_relu_forward(v)
        h, c_drop = oracle_dropout_forward(a, dropout_rate(i), train, rng)
        caches.append((c_dense, c_bn, c_relu, c_drop))
    mu, c_mu = oracle_dense_forward(model.mu_head, h)
    logvar_raw, c_lv = oracle_dense_forward(model.logvar_head, h)
    logvar = np.clip(logvar_raw, -LOGVAR_CLIP, LOGVAR_CLIP)
    clip_mask = np.abs(logvar_raw) < LOGVAR_CLIP
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(logvar))):
        raise NumericError("non-finite encoder outputs")
    if eps is None:
        eps = rng.standard_normal(mu.shape) if train else np.zeros_like(mu)
    z = mu + np.exp(0.5 * logvar) * eps
    latent = LatentState(mu=mu, logvar=logvar, z=z, eps=eps)
    return latent, (caches, c_mu, c_lv, clip_mask)


def oracle_encode_backward(model, gmu, glogvar, cache, grads):
    caches, c_mu, c_lv, clip_mask = cache
    gh_mu, g_mu = oracle_dense_backward(model.mu_head, gmu, c_mu)
    gh_lv, g_lv = oracle_dense_backward(model.logvar_head, glogvar * clip_mask, c_lv)
    grads["mu.W"], grads["mu.b"] = g_mu["W"], g_mu["b"]
    grads["logvar.W"], grads["logvar.b"] = g_lv["W"], g_lv["b"]
    gh = gh_mu + gh_lv
    for i in range(len(model.enc_dense) - 1, -1, -1):
        c_dense, c_bn, c_relu, c_drop = caches[i]
        gv = oracle_dropout_backward(gh, c_drop) * c_relu
        gu, g_bn = oracle_bn_backward(model.enc_bn[i], gv, c_bn)
        gh, g_dn = oracle_dense_backward(model.enc_dense[i], gu, c_dense)
        grads[f"enc{i}.W"], grads[f"enc{i}.b"] = g_dn["W"], g_dn["b"]
        grads[f"enc{i}.gamma"], grads[f"enc{i}.shift"] = g_bn["gamma"], g_bn["shift"]


def oracle_decode(model, Z, X_in, train, rng=None):
    h = Z
    caches = []
    for i, (dn, bn) in enumerate(zip(model.dec_dense, model.dec_bn)):
        u, c_dense = oracle_dense_forward(dn, h)
        k = min(h.shape[1], u.shape[1])
        skip_in = np.zeros_like(u)
        skip_in[:, :k] = h[:, :k]
        s = u + model.dec_alpha[i] * skip_in
        v, c_bn = oracle_bn_forward(bn, s, train)
        a, c_relu = oracle_relu_forward(v)
        h, c_drop = oracle_dropout_forward(a, dropout_rate(i), train, rng)
        caches.append((c_dense, skip_in, c_bn, c_relu, c_drop))
    y, c_out = oracle_dense_forward(model.out_layer, h)
    xhat = y + model.beta * X_in
    if not np.all(np.isfinite(xhat)):
        raise NumericError("non-finite decoder outputs")
    return xhat, (caches, c_out, X_in)


def oracle_decode_backward(model, gxhat, cache, grads):
    caches, c_out, X_in = cache
    grads["beta"] = np.array(np.sum(gxhat * X_in))
    gh, g_out = oracle_dense_backward(model.out_layer, gxhat, c_out)
    grads["out.W"], grads["out.b"] = g_out["W"], g_out["b"]
    for i in range(len(model.dec_dense) - 1, -1, -1):
        c_dense, skip_in, c_bn, c_relu, c_drop = caches[i]
        gv = oracle_dropout_backward(gh, c_drop) * c_relu
        gs, g_bn = oracle_bn_backward(model.dec_bn[i], gv, c_bn)
        gh, g_dn = oracle_dense_backward(model.dec_dense[i], gs, c_dense)
        grads[f"dec{i}.alpha"] = np.array(np.sum(gs * skip_in))
        k = min(gh.shape[1], gs.shape[1])
        gh[:, :k] += model.dec_alpha[i] * gs[:, :k]
        grads[f"dec{i}.W"], grads[f"dec{i}.b"] = g_dn["W"], g_dn["b"]
        grads[f"dec{i}.gamma"], grads[f"dec{i}.shift"] = g_bn["gamma"], g_bn["shift"]
    return gh


def oracle_loss_and_grads(model, X, step, train=True, rng=None, eps=None, t_anneal=5000,
                          lam_temporal=0.1, lam_mean=0.1):
    latent, enc_cache = oracle_encode(model, X, train, rng, eps)
    xhat, dec_cache = oracle_decode(model, latent.z, X, train, rng)
    lb = model.composite_loss(X, xhat, latent, step, t_anneal, lam_temporal, lam_mean)
    n_batch, w = X.shape
    gxhat = 2.0 * (xhat - X) / (n_batch * w)
    gdiff = lam_temporal * 2.0 * (np.diff(xhat, axis=1) - np.diff(X, axis=1)) / (
        n_batch * (w - 1)
    )
    gxhat[:, 1:] += gdiff
    gxhat[:, :-1] -= gdiff
    mean_gap = X.mean() - xhat.mean()
    gxhat += lam_mean * (-np.sign(mean_gap)) / (n_batch * w)
    grads = {}
    gz = oracle_decode_backward(model, gxhat, dec_cache, grads)
    gmu = gz.copy()
    glogvar = gz * latent.eps * 0.5 * np.exp(0.5 * latent.logvar)
    gmu += lb.beta_t * latent.mu / n_batch
    glogvar += lb.beta_t * 0.5 * (np.exp(latent.logvar) - 1.0) / n_batch
    oracle_encode_backward(model, gmu, glogvar, enc_cache, grads)
    return lb, xhat, grads


def oracle_infer(model, X, prev_z=None, blend_alpha=1.0):
    """:meth:`Vae.infer`: cached infer-mode encode, blend, decode."""
    X = np.asarray(X, dtype=float)
    latent, _ = oracle_encode(model, X, train=False)
    z = latent.z
    if prev_z is not None:
        z = blend_alpha * z + (1.0 - blend_alpha) * prev_z
    xhat, _ = oracle_decode(model, z, X, train=False)
    return z, xhat


# ---------------------------------------------------------------- schedule

def oracle_lr_at(variant, base_lr, decay_steps, t_warmup, total_steps, step, epoch=0):
    """``LrSchedule(variant, base_lr, decay_steps, t_warmup,
    total_steps).lr_at(step, epoch)``."""
    def warmup_factor(step):
        if t_warmup <= 0:
            return 1.0
        return min(1.0, step / t_warmup)

    if step < 0:
        raise ConfigError("step must be >= 0")
    if variant == "warmup":
        lr = base_lr * warmup_factor(step)
    elif variant == "step_decay":
        lr = base_lr * 0.5 ** (epoch // decay_steps)
        lr *= warmup_factor(step)
    elif variant == "cosine":
        lr = base_lr * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0
        lr *= warmup_factor(step)
    else:  # plateau
        lr = base_lr
    return max(lr, LR_FLOOR)


# ------------------------------------------------------- windows and passes

class Windows(NamedTuple):
    windows: np.ndarray   # [num_windows x w], copies
    origins: np.ndarray   # start index of each window in the source series


def oracle_make_windows(series, w=48, s=1):
    values = np.asarray(series, dtype=float)
    origins = np.arange(0, len(values) - w + 1, s)
    windows = np.stack([values[o:o + w] for o in origins])
    return Windows(windows=windows, origins=origins)


def overlap_add(window_values, origins, n):
    """Per-sample mean of every covering window, added one slice at a time
    in row order."""
    window_values = np.asarray(window_values, dtype=float)
    acc = np.zeros(n)
    count = np.zeros(n)
    w = window_values.shape[1]
    for row, origin in zip(window_values, origins):
        acc[origin:origin + w] += row
        count[origin:origin + w] += 1
    if np.any(count == 0):
        raise DataError("overlap-add: some samples are covered by no window")
    return acc / count


def oracle_infer_series(model, x, prev_z=None, blend_alpha=1.0):
    """:meth:`Vae.infer_series`: every stride-1 window copied, run through
    the cached infer-mode forward and overlap-added."""
    batch = oracle_make_windows(x, w=model.config.window)
    z, xhat = oracle_infer(model, batch.windows, prev_z, blend_alpha)
    return z, overlap_add(xhat, batch.origins, len(x))


def oracle_infer_pass(model, x, detect_config, tau_l=None, prev_z=None, blend_alpha=1.0):
    """:func:`refiner.infer_pass` on :func:`oracle_infer_series`."""
    z, recon = oracle_infer_series(model, x, prev_z, blend_alpha)
    deviation = detector.spike_deviation(x, detect_config)
    step_mask = detector.detect_steps(x, detect_config, tau_l=tau_l)
    return refiner.InferPass(z=z, recon=recon, deviation=deviation, step_mask=step_mask)


# ------------------------------------------------------------ postprocess

def oracle_validate_steps(x, step_mask, spike_mask, w_l=480, tau_l=0.05, w_s=48):
    """``postprocess.validate_steps`` as a per-candidate loop: both
    half-window means taken on slices, the spike veto a scan of every
    spike index."""
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


# ------------------------------------------------- detector and metrics

def oracle_hybrid_score(re, stat_dev, hybrid_alpha=0.7, kappa=3.0):
    """(score, indices): the convex combination of min-max scaled ``re`` and
    ``stat_dev``, and the indices where it exceeds its mean plus ``kappa``
    population standard deviations."""
    def scaled(values):
        span = values.max() - values.min()
        return np.zeros_like(values) if span <= 0 else (values - values.min()) / span
    score = hybrid_alpha * scaled(np.asarray(re, dtype=float)) + (1.0 - hybrid_alpha) * scaled(
        np.asarray(stat_dev, dtype=float))
    return score, np.flatnonzero(score > float(score.mean() + kappa * score.std()))


def oracle_match_events(predicted_segments, true_indices, tolerance=2):
    """(tp, n_pred, n_true): each segment in turn scans every true event and
    takes the unmatched one nearest to its start or end within
    ``tolerance``, the first of equals."""
    true_indices = list(true_indices)
    matched = set()
    tp = 0
    for start, end in predicted_segments:
        best = None
        for j, idx in enumerate(true_indices):
            if j in matched:
                continue
            if start - tolerance <= idx <= end + tolerance:
                dist = min(abs(idx - start), abs(idx - end))
                if best is None or dist < best[1]:
                    best = (j, dist)
        if best is not None:
            matched.add(best[0])
            tp += 1
    return tp, len(predicted_segments), len(true_indices)


def oracle_rate_of_change(series, cadence_seconds):
    """First differences of ``series`` in meters per minute."""
    return np.diff(np.asarray(series, dtype=float)) / cadence_seconds * 60.0


# ------------------------------------------------------------- CSV readers

def oracle_read_cleaned_csv(text) -> CleanedOutput:
    """``series_io.read_cleaned_csv``: ``csv.reader`` and ``strptime`` per row."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if ",".join(header) != CSV_HEADER:
        raise ParseError(f"unexpected header {header}")
    ts, raw, cleaned, spike, step, resid = [], [], [], [], [], []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != 6:
                raise ValueError(f"expected 6 fields, found {len(row)}")
            ts.append(datetime.strptime(row[0], ISO_FORMAT)
                      .replace(tzinfo=timezone.utc).timestamp())
            raw.append(float(row[1]))
            cleaned.append(float(row[2]))
            spike.append(int(row[3]))
            step.append(int(row[4]))
            resid.append(float(row[5]))
        except ValueError as exc:
            raise ParseError(f"bad cleaned-CSV row: {exc}", reader.line_num) from None
    return CleanedOutput(
        timestamps=np.asarray(ts), raw=np.asarray(raw), cleaned=np.asarray(cleaned),
        spike=np.asarray(spike), step=np.asarray(step), residual=np.asarray(resid),
    )


def oracle_read_ground_truth(text) -> dict:
    """``series_io.read_ground_truth``: one line at a time, ``strptime`` per
    stamp."""
    ts, clean, contaminated, spike, step, gap = [], [], [], [], [], []
    cadence = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("time_iso8601"):
            continue
        try:
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("cadence="):
                        cadence = float(token.split("=", 1)[1])
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ValueError(f"expected 6 fields, found {len(parts)}")
            ts.append(datetime.strptime(parts[0], ISO_FORMAT)
                      .replace(tzinfo=timezone.utc).timestamp())
            clean.append(float(parts[1]))
            contaminated.append(float(parts[2]))
            spike.append(int(parts[3]))
            step.append(int(parts[4]))
            gap.append(int(parts[5]))
        except ValueError as exc:
            raise ParseError(f"bad ground-truth row: {exc}", lineno) from None
    if cadence is not None and not 0 < cadence < float("inf"):
        raise ParseError(f"bad ground-truth cadence {cadence}")
    if not clean:
        raise DataError("no ground-truth rows")
    return {
        "timestamps": np.asarray(ts),
        "clean": np.asarray(clean), "contaminated": np.asarray(contaminated),
        "spike": np.asarray(spike, dtype=bool), "step": np.asarray(step, dtype=bool),
        "gap": np.asarray(gap, dtype=bool), "cadence": 900.0 if cadence is None else cadence,
    }
