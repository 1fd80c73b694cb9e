"""Window-denoising variational autoencoder with skip connections.

Encoder: window -> dense/batch-norm/ReLU/dropout stack -> mean and
log-variance heads over a 16-dimensional latent.  Decoder mirrors the
stack; each decoder block adds a learnable-scalar skip of its input (the
first min(in, out) coordinates, zero-padded), and a global skip adds
``beta * input_window`` to the final output.  ``beta`` is not trained by
gradient descent: it is recomputed from reconstruction confidence after
every batch (see :meth:`Vae.update_global_skip`).

All gradients are analytic; the test suite checks every parameter class
against central finite differences.  :meth:`Vae.encode`/:meth:`Vae.decode`
are the cached training forward; validation, detection and refinement run
through the one uncached, row-blocked infer-mode forward: :meth:`Vae.infer`
on a window batch, :meth:`Vae.infer_series` on every window of a series,
overlap-added as it is decoded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blocks import map_blocks, row_blocks, workers
from .errors import DataError, NumericError, ShapeError
from .layers import (
    BatchNorm,
    Dense,
    dropout_backward,
    dropout_forward,
    dropout_rate,
    relu_backward,
    relu_forward,
)
from .series_io import check_budget, check_rules

LOGVAR_CLIP = 10.0
# row blocks of an infer pass per worker that may be started before the
# calling thread has taken their seams: enough that the other workers run
# on while one worker's CPU is held up
BLOCKS_AHEAD = 2
# elements of NumPy's ufunc buffer while an infer pass runs: five of each
# hidden block's six element-wise passes broadcast a per-feature vector
# over the block's rows, and each ran 1.3-1.6x as long with the default 8 192
INFER_BUFSIZE = 1024
# keys of the checkpointed arrays that gradient descent does not train
BUFFER_KEYS = {"running_mean", "running_var", "beta"}


@dataclass
class ModelConfig:
    window: int = 48
    hidden: tuple = (512, 256, 128)
    latent: int = 16
    skip_alpha_init: float = 0.8
    beta0: float = 0.8
    conf_decay: float = 0.5
    bn_momentum: float = 0.9
    bn_eps: float = 1e-5

    def __post_init__(self):
        check_rules(self, "model", [
            (("window",), lambda v: v >= 2, "an integer >= 2"),
            (("hidden",), lambda v: len(v) > 0 and min(v) >= 1,
             "a non-empty list of widths, each >= 1"),
            (("latent",), lambda v: v >= 1, "an integer >= 1"),
            (("bn_eps",), lambda v: 0.0 < v < math.inf, "a finite number > 0"),
            (("bn_momentum",), lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
            (("skip_alpha_init", "beta0", "conf_decay"), math.isfinite, "a finite number"),
        ])
        # one worker's two buffers at the largest block row_blocks cuts,
        # its seam slots and the seam's (sample, element) order
        rows, widths, key = infer_block(self)
        most = 2 * rows - 1
        seam = min(self.window - 1, most) * self.window
        check_budget(key, 8 * (most * sum(widths) + (BLOCKS_AHEAD + 2) * seam), "an infer block")
        count = sum(math.prod(shape) for shape in state_shapes(self).values())
        check_budget("model.hidden", 5 * 8 * count, f"{count:,} parameters, their gradient, "
                     "Adam's m and v and the best state")


def infer_block(config: ModelConfig) -> tuple:
    """(rows, widths, key) of the infer-mode forward's row blocks.
    :func:`blocks.row_blocks` cuts n windows into blocks of ``rows`` to
    ``2 * rows - 1`` rows, or one block if n < rows.  Each worker has two
    scratch buffers, a row of the first ``widths[0]`` float64 wide and of
    the second ``widths[1]``: the widest array each holds as the layers
    read one and write the other.  Both hold a window: the first the
    encoder's input, then the decoded block, the second the global skip.
    Hidden layer i writes buffer ``_target(i)``, and the buffer the last
    hidden layer does not write holds both latent heads.  ``key`` names the
    config key of the widest of all these arrays.

    ``rows`` keeps a block of the widest array to 2^17 float64 (1 MiB),
    between two bounds.  The cap is 1 024 rows: a narrow model's blocks are
    cache-sized already, and smaller ones only ran slower (20 000 windows
    of a 128-wide model took 47 ms at 1 024 rows, 63 ms at 256 and 108 ms
    at 128).  The floor is 76 rows: OpenBLAS 0.3.31 rounds batches of 75
    rows or fewer differently from a full batch."""
    hidden = config.hidden
    widths = [config.window, config.window]
    for i, width in enumerate(hidden):
        widths[_target(i)] = max(widths[_target(i)], width)
    heads = 1 - _target(len(hidden) - 1)
    widths[heads] = max(widths[heads], 2 * config.latent)
    width, key = max((config.window, "model.window"), (2 * config.latent, "model.latent"),
                     (max(hidden), "model.hidden"))
    return max(76, min(1024, 2 ** 17 // width)), tuple(widths), key


def _target(i: int) -> int:
    """The scratch buffer, 0 or 1, that hidden layer i of an infer block
    writes, in the encoder and again in the decoder: buffer 0 takes the
    window in and the decoded block out, and each layer writes the buffer
    its input is not in."""
    return (i + 1) % 2


@dataclass
class LatentState:
    mu: np.ndarray
    logvar: np.ndarray
    z: np.ndarray
    eps: np.ndarray


@dataclass
class LossBreakdown:
    recon: float
    kl: float
    temporal: float
    mean: float
    beta_t: float
    total: float


def kl_divergence(latent: LatentState) -> float:
    """Batch-mean closed-form KL against the standard normal prior."""
    mu, logvar = latent.mu, latent.logvar
    per_row = 0.5 * np.sum(mu ** 2 + np.exp(logvar) - 1.0 - logvar, axis=1)
    return float(per_row.mean())


def state_shapes(config: ModelConfig) -> dict:
    """The shape of every checkpointed array of a :class:`Vae` built from
    ``config``, by name, in checkpoint order: the trainable arrays first,
    then the buffers.  The flat parameter and gradient vectors are laid out
    from it, and :func:`series_io.load_checkpoint` checks a file against it
    before it builds the model."""
    shapes = {}

    def layer(prefix, n_in, n_out, *extra):
        shapes.update({f"{prefix}.W": (n_out, n_in), f"{prefix}.b": (n_out,)})
        shapes.update({f"{prefix}.{key}": (n_out,) for key in extra})

    enc = [config.window, *config.hidden]
    dec = [config.latent, *config.hidden[::-1]]
    for i in range(len(config.hidden)):
        layer(f"enc{i}", enc[i], enc[i + 1], "gamma", "shift")
    layer("mu", enc[-1], config.latent)
    layer("logvar", enc[-1], config.latent)
    for i in range(len(config.hidden)):
        layer(f"dec{i}", dec[i], dec[i + 1], "gamma", "shift")
        shapes[f"dec{i}.alpha"] = ()
    layer("out", dec[-1], config.window)
    for prefix, widths in (("enc", enc[1:]), ("dec", dec[1:])):
        for i, width in enumerate(widths):
            shapes.update({f"{prefix}{i}.running_mean": (width,),
                           f"{prefix}{i}.running_var": (width,)})
    shapes["beta"] = ()
    return shapes


def check_state(found: dict, shapes: dict):
    """Raise ``ShapeError`` unless ``found``, the shape of each array by
    name, holds every name of ``shapes`` at its shape."""
    missing = set(shapes) - set(found)
    if missing:
        raise ShapeError(f"checkpoint missing arrays: {sorted(missing)}")
    for name, shape in shapes.items():
        if found[name] != shape:
            raise ShapeError(f"array {name!r}: expected shape {shape}, got {found[name]}")


def _rows(buffer: np.ndarray, m: int, k: int) -> np.ndarray:
    """An [m x k] C-ordered array over the start of the flat ``buffer``."""
    return buffer[:m * k].reshape(m, k)


def _frozen_block(h: np.ndarray, dense: Dense, bn: BatchNorm, scale: np.ndarray,
                  out: np.ndarray, alpha=None, skip=None) -> np.ndarray:
    """One infer-mode hidden block on a row block, uncached, into the flat
    buffer ``out``: Dense (plus the decoder skip when ``alpha`` is given,
    its products written into ``skip``, an array shaped like ``h`` or ``h``
    itself), frozen batch norm (``scale`` is ``1 / sqrt(running_var +
    eps)``), ReLU; the operations, in order, of the cached infer-mode
    forward that ``tests/oracles.py`` keeps."""
    u = np.matmul(h, dense.W.T, out=_rows(out, len(h), dense.W.shape[0]))
    u += dense.b
    if alpha is not None:
        k = min(h.shape[1], u.shape[1])
        u[:, :k] += np.multiply(alpha, h[:, :k], out=skip[:, :k])
        u[:, k:] += alpha * 0.0   # the zero-padded skip: may flip the sign of a zero
    u -= bn.running_mean
    u *= scale
    u *= bn.gamma
    u += bn.shift
    return np.maximum(u, 0.0, out=u)


class Vae:
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)

        # Every checkpointed array is made here, once, from the table, as an
        # entry of ``state``; the layers hold these arrays, and training,
        # ``load_state`` and ``update_global_skip`` write into them.  The
        # trainable ones are views of the flat vector ``params``, each with a
        # gradient view at the same place in ``grad``; the dense weight
        # matrices come first, so weight decay covers the first ``decayed``
        # elements.
        shapes = state_shapes(config)
        names = [name for name in shapes if name.rpartition(".")[2] not in BUFFER_KEYS]
        names.sort(key=lambda name: not name.endswith(".W"))
        self.spans, size = {}, 0
        for name in names:
            self.spans[name] = slice(size, size + math.prod(shapes[name]))
            size = self.spans[name].stop
            if name.endswith(".W"):
                self.decayed = size
        self.params, self.grad = np.empty(size), np.zeros(size)
        initial = {"b": 0.0, "gamma": 1.0, "shift": 0.0, "alpha": config.skip_alpha_init,
                   "running_mean": 0.0, "running_var": 1.0, "beta": config.beta0}
        self.state, self._grads = {}, {}
        for name, shape in shapes.items():
            if name in self.spans:
                array = self.params[self.spans[name]].reshape(shape)
                self._grads[name] = self.grad[self.spans[name]].reshape(shape)
            else:
                array = np.empty(shape)
            key = name.rpartition(".")[2]
            # He initialization, in table order; the hidden activations are ReLU
            array[...] = (rng.standard_normal(shape) * np.sqrt(2.0 / shape[1])
                          if key == "W" else initial[key])
            self.state[name] = array

        def dense(prefix):
            return Dense(self.state[f"{prefix}.W"], self.state[f"{prefix}.b"])

        def norm(prefix):
            return BatchNorm(*(self.state[f"{prefix}.{key}"] for key in
                               ("gamma", "shift", "running_mean", "running_var")),
                             config.bn_momentum, config.bn_eps)

        depth = range(len(config.hidden))
        self.enc_dense = [dense(f"enc{i}") for i in depth]
        self.enc_bn = [norm(f"enc{i}") for i in depth]
        self.mu_head = dense("mu")
        self.logvar_head = dense("logvar")
        self.dec_dense = [dense(f"dec{i}") for i in depth]
        self.dec_bn = [norm(f"dec{i}") for i in depth]
        self.dec_alpha = tuple(self.state[f"dec{i}.alpha"] for i in depth)
        self.out_layer = dense("out")
        self.beta = self.state["beta"]

    # ---------------------------------------------------------------- params

    def trainable(self) -> dict:
        """Live references to every gradient-trained array."""
        return {name: array for name, array in self.state.items() if name in self.spans}

    def load_state(self, arrays: dict):
        """Copy ``arrays`` into the model's own arrays.  Every shape is
        checked first, so a bad checkpoint leaves no partial state."""
        check_state({name: np.shape(a) for name, a in arrays.items()},
                    state_shapes(self.config))
        for name, array in self.state.items():
            array[...] = arrays[name]

    def clone_state(self) -> dict:
        return {name: array.copy() for name, array in self.state.items()}

    # --------------------------------------------------------------- forward

    def encode(self, X: np.ndarray, rng=None, eps=None):
        """Training forward of the encoder; returns (latent, cache).

        ``rng`` draws the dropout masks and eps; without it there is no
        dropout and eps = 0.  An explicit ``eps`` array overrides either.
        """
        if X.ndim != 2 or X.shape[1] != self.config.window:
            raise ShapeError(f"expected [batch x {self.config.window}] windows, got {X.shape}")
        h = X
        caches = []
        for i, (dn, bn) in enumerate(zip(self.enc_dense, self.enc_bn)):
            u, c_dense = dn.forward(h)
            v, c_bn = bn.forward(u)
            a, c_relu = relu_forward(v)
            h, c_drop = dropout_forward(a, dropout_rate(i), rng)
            caches.append((c_dense, c_bn, c_relu, c_drop))
        mu, c_mu = self.mu_head.forward(h)
        logvar_raw, c_lv = self.logvar_head.forward(h)
        logvar = np.clip(logvar_raw, -LOGVAR_CLIP, LOGVAR_CLIP)
        clip_mask = np.abs(logvar_raw) < LOGVAR_CLIP
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(logvar))):
            raise NumericError("non-finite encoder outputs")
        if eps is None:
            eps = np.zeros_like(mu) if rng is None else rng.standard_normal(mu.shape)
        z = mu + np.exp(0.5 * logvar) * eps
        return LatentState(mu=mu, logvar=logvar, z=z, eps=eps), (caches, c_mu, c_lv, clip_mask)

    def _record(self, grads: dict, prefix: str, *keys) -> list:
        """The gradient views of ``prefix.key`` for each key, entered into
        ``grads`` in that order."""
        views = [self._grads[f"{prefix}.{key}"] for key in keys]
        grads.update(zip((f"{prefix}.{key}" for key in keys), views))
        return views

    def encode_backward(self, gmu: np.ndarray, glogvar: np.ndarray, cache, grads: dict):
        caches, c_mu, c_lv, clip_mask = cache
        gh = self.mu_head.backward(gmu, c_mu, *self._record(grads, "mu", "W", "b"))
        gh += self.logvar_head.backward(glogvar * clip_mask, c_lv,
                                        *self._record(grads, "logvar", "W", "b"))
        for i in range(len(self.enc_dense) - 1, -1, -1):
            c_dense, c_bn, c_relu, c_drop = caches[i]
            gW, gb, ggamma, gshift = self._record(grads, f"enc{i}", "W", "b", "gamma", "shift")
            ga = dropout_backward(gh, c_drop)
            gv = relu_backward(ga, c_relu)
            gu = self.enc_bn[i].backward(gv, c_bn, ggamma, gshift)
            # nothing reads the gradient on the input windows
            gh = self.enc_dense[i].backward(gu, c_dense, gW, gb, input_grad=i > 0)

    def decode(self, Z: np.ndarray, X_in: np.ndarray, rng=None):
        """Training forward of the decoder; returns (xhat, cache).

        Each block computes Dense(h) + alpha_l * skip(h) before batch norm,
        where skip(h) is h cut or zero-padded to the block's width; the
        final dense output receives the global skip beta * X_in.
        """
        if Z.ndim != 2 or Z.shape[1] != self.config.latent:
            raise ShapeError(f"expected [batch x {self.config.latent}] latents, got {Z.shape}")
        if X_in.shape != (Z.shape[0], self.config.window):
            raise ShapeError("input windows must match latent batch and window size")
        h = Z
        caches = []
        for i, (dn, bn, alpha) in enumerate(zip(self.dec_dense, self.dec_bn, self.dec_alpha)):
            s, c_dense = dn.forward(h)
            k = min(h.shape[1], s.shape[1])
            s[:, :k] += alpha * h[:, :k]
            s[:, k:] += alpha * 0.0   # the zero-padded skip: may flip the sign of a zero
            v, c_bn = bn.forward(s)
            a, c_relu = relu_forward(v)
            h, c_drop = dropout_forward(a, dropout_rate(i), rng)
            caches.append((c_dense, c_bn, c_relu, c_drop))
        y, c_out = self.out_layer.forward(h)
        xhat = y + self.beta * X_in
        if not np.all(np.isfinite(xhat)):
            raise NumericError("non-finite decoder outputs")
        cache = (caches, c_out, X_in)
        return xhat, cache

    def decode_backward(self, gxhat: np.ndarray, cache, grads: dict) -> np.ndarray:
        """Backprop through the decoder; returns the gradient on Z."""
        caches, c_out, X_in = cache
        grads["beta"] = np.array(np.sum(gxhat * X_in))
        gh = self.out_layer.backward(gxhat, c_out, *self._record(grads, "out", "W", "b"))
        for i in range(len(self.dec_dense) - 1, -1, -1):
            c_dense, c_bn, c_relu, c_drop = caches[i]
            galpha, gW, gb, ggamma, gshift = self._record(
                grads, f"dec{i}", "alpha", "W", "b", "gamma", "shift")
            ga = dropout_backward(gh, c_drop)
            gv = relu_backward(ga, c_relu)
            gs = self.dec_bn[i].backward(gv, c_bn, ggamma, gshift)
            gh = self.dec_dense[i].backward(gs, c_dense, gW, gb)
            k = min(gh.shape[1], gs.shape[1])
            gh[:, :k] += self.dec_alpha[i] * gs[:, :k]
            # the alpha gradient is sum(gs * skip(h)), with the block input h
            # (the dense cache) cut or zero-padded as in the forward; gs is
            # spent, so it holds the products
            gs[:, :k] *= c_dense[:, :k]
            gs[:, k:] *= 0.0
            gs.sum(out=galpha)
        return gh

    # ------------------------------------------------------------------ loss

    def composite_loss(self, X: np.ndarray, xhat: np.ndarray, latent: LatentState,
                       step: int, t_anneal: int = 5000, lam_temporal: float = 0.1,
                       lam_mean: float = 0.1) -> LossBreakdown:
        return self._loss_terms(X, xhat, latent, step, t_anneal, lam_temporal, lam_mean)[0]

    def _loss_terms(self, X, xhat, latent, step, t_anneal, lam_temporal, lam_mean):
        """:meth:`composite_loss` and the gaps it takes, ``diff(xhat) - diff(X)``
        and ``mean(X) - mean(xhat)``, which the gradient reuses."""
        if X.shape != xhat.shape:
            raise ShapeError("loss inputs must share a shape")
        if X.shape[1] < 2:
            raise ShapeError("temporal loss undefined for windows shorter than 2")
        recon = float(np.mean((xhat - X) ** 2))
        kl = kl_divergence(latent)
        gap = np.diff(xhat, axis=1) - np.diff(X, axis=1)
        temporal = float(np.mean(gap ** 2))
        mean_gap = X.mean() - xhat.mean()
        mean_pen = float(abs(mean_gap))
        beta_t = min(1.0, step / t_anneal) if t_anneal > 0 else 1.0
        total = recon + beta_t * kl + lam_temporal * temporal + lam_mean * mean_pen
        return LossBreakdown(recon, kl, temporal, mean_pen, beta_t, total), gap, mean_gap

    def loss_and_grads(self, X: np.ndarray, step: int, rng=None, eps=None,
                       t_anneal: int = 5000, lam_temporal: float = 0.1,
                       lam_mean: float = 0.1):
        """Training forward plus analytic gradients of the composite loss.

        Returns (loss, xhat, grads): ``grads`` maps each name to its
        gradient, in the order the backward pass writes them, "beta" first;
        every value but beta's is a view of :attr:`grad`, which the next
        call overwrites."""
        latent, enc_cache = self.encode(X, rng=rng, eps=eps)
        xhat, dec_cache = self.decode(latent.z, X, rng=rng)
        lb, gap, mean_gap = self._loss_terms(X, xhat, latent, step, t_anneal, lam_temporal,
                                             lam_mean)

        n_batch, w = X.shape
        gxhat = 2.0 * (xhat - X) / (n_batch * w)
        gdiff = lam_temporal * 2.0 * gap / (n_batch * (w - 1))
        gxhat[:, 1:] += gdiff
        gxhat[:, :-1] -= gdiff
        gxhat += lam_mean * (-np.sign(mean_gap)) / (n_batch * w)

        grads = {}
        gz = self.decode_backward(gxhat, dec_cache, grads)
        gmu = gz.copy()
        glogvar = gz * latent.eps * 0.5 * np.exp(0.5 * latent.logvar)
        gmu += lb.beta_t * latent.mu / n_batch
        glogvar += lb.beta_t * 0.5 * (np.exp(latent.logvar) - 1.0) / n_batch
        self.encode_backward(gmu, glogvar, enc_cache, grads)
        return lb, xhat, grads

    # --------------------------------------------------------------- helpers

    def _infer_rows(self, X: np.ndarray, z, prev_z, blend_alpha: float, logvar_out, place,
                    out, join=None):
        """The one infer-mode forward, behind :meth:`infer` and
        :meth:`infer_series`.  Each row block of the [n x window] windows
        ``X`` is encoded, blended into ``z`` (which may be ``prev_z``: a
        block reads its rows of it first), decoded and placed by one task
        of :func:`blocks.map_blocks`: the worker hands its decoded block to
        ``place(lo, hi, y)``, which must be done with it when it returns
        and may write only what no other block writes.  With ``join``, the
        worker also copies the block's first min(window - 1, rows) rows, its
        seam, into a slot, and the calling thread hands each seam, in block
        order, to ``join(lo, seam)``.  An encoder fault raises when its
        block's turn comes, before ``out`` is checked once every block is
        done, so encoder faults come first."""
        n, w, latent = X.shape[0], self.config.window, self.config.latent
        if prev_z is not None and np.shape(prev_z) != (n, latent):
            raise ShapeError(f"expected [{n} x {latent}] previous latents, "
                             f"got {np.shape(prev_z)}")
        size, widths, _ = infer_block(self.config)
        spans = row_blocks(n, size)
        count = workers(len(spans))
        # Every block-sized array a block writes lives in a flat buffer
        # allocated by this thread: a pool thread's malloc arena would keep
        # what the thread frees for the life of the process.  Each worker
        # has two, as wide as ``infer_block`` says.  Hidden layer k writes
        # buffer ``_target(k)``, reading the other; the spare one the last
        # encoder layer leaves takes the log-variances beside the blend
        # product, then the products of the first decoder skip.  A later
        # decoder layer writes its skip products over its spent input.  The
        # decoded block and the global skip take one each.  A block's seam,
        # at most ``rows`` rows, waits for the calling thread in the (block
        # mod ahead)-th of ``ahead`` slots.
        rows = max(hi - lo for lo, hi in spans)
        scratch = [tuple(np.empty(rows * width) for width in widths) for _ in range(count)]
        ahead = min(BLOCKS_AHEAD * count, len(spans))
        seam_rows = min(w - 1, rows)
        seams = [np.empty(seam_rows * w) for _ in range(ahead if join else 0)]
        depth = len(self.enc_dense)
        # frozen batch norm's 1 / sqrt(running_var + eps), once per layer and pass
        enc_scale, dec_scale = ([1.0 / np.sqrt(bn.running_var + bn.eps) for bn in norms]
                                for norms in (self.enc_bn, self.dec_bn))

        def run_block(i, worker):
            lo, hi = spans[i]
            buffers = scratch[worker]
            h = _rows(buffers[0], hi - lo, w)
            np.copyto(h, X[lo:hi])
            for k, (dn, bn, scale) in enumerate(zip(self.enc_dense, self.enc_bn, enc_scale)):
                h = _frozen_block(h, dn, bn, scale, buffers[_target(k)])
            spare = buffers[1 - _target(depth - 1)]
            if prev_z is not None:
                kept = np.multiply(1.0 - blend_alpha, prev_z[lo:hi],
                                   out=_rows(spare[(hi - lo) * latent:], hi - lo, latent))
            mu = np.matmul(h, self.mu_head.W.T, out=z[lo:hi])
            mu += self.mu_head.b
            logvar = np.matmul(h, self.logvar_head.W.T, out=_rows(spare, hi - lo, latent)
                               if logvar_out is None else logvar_out[lo:hi])
            logvar += self.logvar_head.b
            np.clip(logvar, -LOGVAR_CLIP, LOGVAR_CLIP, out=logvar)
            if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(logvar))):
                raise NumericError("non-finite encoder outputs")
            mu += 0.0   # z = mu + exp(0.5 * logvar) * 0, which turns -0.0 into 0.0
            if prev_z is not None:
                mu *= blend_alpha
                mu += kept
            h, skip = mu, _rows(spare, hi - lo, latent)
            # decoder block j is the mirror of hidden layer depth - 1 - j
            for k, dn, bn, scale, alpha in zip(range(depth - 1, -1, -1), self.dec_dense,
                                               self.dec_bn, dec_scale, self.dec_alpha):
                h = skip = _frozen_block(h, dn, bn, scale, buffers[_target(k)], alpha, skip)
            y = np.matmul(h, self.out_layer.W.T, out=_rows(buffers[0], hi - lo, w))
            y += self.out_layer.b
            y += np.multiply(self.beta, X[lo:hi], out=_rows(buffers[1], hi - lo, w))
            place(lo, hi, y)
            if join is not None:
                seam = _rows(seams[i % ahead], min(w - 1, hi - lo), w)
                np.copyto(seam, y[:len(seam)])
                return seam

        # Every block runs on the smaller ufunc buffer, which the pool threads
        # take from this context; leaving it restores the caller's.  No
        # reduction in here sums in an order the buffer size sets
        with np.errstate():
            np.setbufsize(INFER_BUFSIZE)
            for (lo, _), seam in zip(spans, map_blocks(run_block, range(len(spans)), count,
                                                       ahead)):
                if join is not None:
                    join(lo, seam)
        if not np.all(np.isfinite(out)):
            raise NumericError("non-finite decoder outputs")

    def infer(self, X: np.ndarray, prev_z: np.ndarray | None = None,
              blend_alpha: float = 1.0, logvar_out: np.ndarray | None = None):
        """Infer-mode encode, optional latent blend, decode; returns (z, xhat).

        ``z = blend_alpha * mu + (1 - blend_alpha) * prev_z`` when ``prev_z``
        is given, else ``mu``.  ``logvar_out``, an [n x latent] array,
        receives the clipped log-variances when given; otherwise they live
        one row block at a time.  Walks the rows in blocks and keeps no
        caches; encoder faults are raised before decoder faults.
        """
        if X.ndim != 2 or X.shape[1] != self.config.window:
            raise ShapeError(f"expected [batch x {self.config.window}] windows, got {X.shape}")
        xhat = np.empty_like(X)
        z = np.empty((len(X), self.config.latent))

        def place(lo, hi, y):
            xhat[lo:hi] = y

        self._infer_rows(X, z, prev_z, blend_alpha, logvar_out, place, xhat)
        return z, xhat

    def infer_series(self, x: np.ndarray, prev_z: np.ndarray | None = None,
                     blend_alpha: float = 1.0):
        """:meth:`infer` on every stride-1 window of the series ``x``, with
        the decoded windows overlap-added back to series length; returns
        (z, recon), ``recon[i]`` the mean of every decoded window covering
        sample i.  A given ``prev_z``, a writable C-contiguous float64
        array, is overwritten by the blended latents and returned as z, so a
        refinement holds one latent array (undefined after a fault).

        Holds no [windows x window] array.  Each encoder block is copied
        out of a sliding view of ``x``, and every sample sums its covering
        windows in ascending origin order: the order of the plain
        window-by-window overlap-add, bit for bit.  A block of windows lo
        ... hi - 1 covers samples lo ... hi + window - 2.  No earlier block
        covers samples lo + window - 1 on, so the worker adds the block to
        them itself, column by column, j = window-1 ... 0.  The calling
        thread adds its seam, its first window - 1 rows (all of a shorter
        block), to samples lo ... lo + window - 2 once every earlier block
        is done.
        """
        n, w = len(x), self.config.window
        if n < w:
            raise DataError(f"series of length {n} is shorter than window {w}")
        z = np.empty((n - w + 1, self.config.latent)) if prev_z is None else prev_z
        if not (isinstance(z, np.ndarray) and z.dtype == np.float64
                and z.flags.c_contiguous and z.flags.writeable):
            raise ShapeError("previous latents must be a writable, C-contiguous float64 array")
        recon = np.zeros(n)
        # seam row r adds its element s - r to sample lo + s, for s = r ...
        # window - 2; by row, so each sample sums in ascending origin order.
        # Only the rows the largest block's seam has are ordered
        size = infer_block(self.config)[0]
        rows = min(w - 1, max(hi - lo for lo, hi in row_blocks(n - w + 1, size)))
        r, s = np.triu_indices(rows, m=w - 1)
        take = r * (w - 1) + s
        del r

        def place(lo, hi, y):
            for j in range(w - 1, -1, -1):
                recon[lo + w - 1:hi + j] += y[w - 1 - j:, j]

        def join(lo, seam):
            m = len(seam)
            held = m * (w - 1) - m * (m - 1) // 2   # row r holds w - 1 - r pairs
            np.add.at(recon[lo:], s[:held], seam.ravel()[take[:held]])

        self._infer_rows(sliding_window_view(x, w), z, prev_z, blend_alpha, None, place, recon,
                         join)
        i = np.arange(n)
        recon /= np.minimum(i, n - w) - np.maximum(i - (w - 1), 0) + 1
        return z, recon

    def update_global_skip(self, recon_loss: float) -> float:
        """Recompute beta from reconstruction confidence 1 / (1 + L_recon)."""
        if recon_loss < 0:
            raise ValueError("reconstruction loss must be >= 0")
        confidence = 1.0 / (1.0 + recon_loss)
        self.beta[...] = self.config.beta0 * np.exp(-self.config.conf_decay * confidence)
        return float(self.beta)
