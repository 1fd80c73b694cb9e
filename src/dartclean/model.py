"""Window-denoising variational autoencoder with skip connections.

Encoder: window -> dense/batch-norm/ReLU/dropout stack -> mean and
log-variance heads over a 16-dimensional latent.  Decoder mirrors the
stack; each decoder block adds a learnable-scalar skip of its input (the
first min(in, out) coordinates, zero-padded), and a global skip adds
``beta * input_window`` to the final output.  ``beta`` is not trained by
gradient descent: it is recomputed from reconstruction confidence after
every batch (see :meth:`Vae.update_global_skip`).

All gradients are analytic; the test suite checks every parameter class
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .layers import (
    BatchNorm,
    Dense,
    dropout_backward,
    dropout_forward,
    dropout_rate,
    relu_backward,
    relu_forward,
)

LOGVAR_CLIP = 10.0
# slot keys of the checkpointed arrays that gradient descent does not train
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
        if self.window < 2:
            raise ConfigError(f"model.window must be >= 2, got {self.window}")
        if not self.hidden or min(self.hidden) < 1:
            raise ConfigError(f"model.hidden needs at least one width, each >= 1, "
                              f"got {list(self.hidden)}")
        if self.latent < 1:
            raise ConfigError(f"model.latent must be >= 1, got {self.latent}")
        if not self.bn_eps > 0:
            raise ConfigError(f"model.bn_eps must be > 0, got {self.bn_eps}")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ConfigError(f"model.bn_momentum must lie in [0, 1], got {self.bn_momentum}")


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
    lam_temporal: float
    lam_mean: float
    total: float = field(init=False)

    def __post_init__(self):
        self.total = (
            self.recon
            + self.beta_t * self.kl
            + self.lam_temporal * self.temporal
            + self.lam_mean * self.mean
        )


def kl_divergence(latent: LatentState) -> float:
    """Batch-mean closed-form KL against the standard normal prior."""
    mu, logvar = latent.mu, latent.logvar
    per_row = 0.5 * np.sum(mu ** 2 + np.exp(logvar) - 1.0 - logvar, axis=1)
    return float(per_row.mean())


class Vae:
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        w, hidden, d = config.window, list(config.hidden), config.latent

        self.enc_dense = []
        self.enc_bn = []
        widths = [w] + hidden
        for i in range(len(hidden)):
            self.enc_dense.append(Dense(widths[i], widths[i + 1], rng))
            self.enc_bn.append(BatchNorm(widths[i + 1], config.bn_momentum, config.bn_eps))

        self.mu_head = Dense(hidden[-1], d, rng)
        self.logvar_head = Dense(hidden[-1], d, rng)

        dec_widths = [d] + hidden[::-1]
        self.dec_dense = []
        self.dec_bn = []
        self.dec_alpha = []
        for i in range(len(hidden)):
            self.dec_dense.append(Dense(dec_widths[i], dec_widths[i + 1], rng))
            self.dec_bn.append(BatchNorm(dec_widths[i + 1], config.bn_momentum, config.bn_eps))
            self.dec_alpha.append(np.array(config.skip_alpha_init))
        self.out_layer = Dense(dec_widths[-1], w, rng)
        self.beta = np.array(config.beta0)
        self._slots = self._slot_table()

    # ---------------------------------------------------------------- params

    def _slot_table(self) -> list:
        """Every checkpointed array as a (name, container, key) slot, in
        checkpoint order: trainable arrays first, then the buffers."""
        def layer(prefix, obj, *keys):
            return [(f"{prefix}.{key}", obj.__dict__, key) for key in keys]

        slots = []
        for i, (dn, bn) in enumerate(zip(self.enc_dense, self.enc_bn)):
            slots += layer(f"enc{i}", dn, "W", "b") + layer(f"enc{i}", bn, "gamma", "shift")
        slots += layer("mu", self.mu_head, "W", "b") + layer("logvar", self.logvar_head, "W", "b")
        for i, (dn, bn) in enumerate(zip(self.dec_dense, self.dec_bn)):
            slots += layer(f"dec{i}", dn, "W", "b") + layer(f"dec{i}", bn, "gamma", "shift")
            slots.append((f"dec{i}.alpha", self.dec_alpha, i))
        slots += layer("out", self.out_layer, "W", "b")
        for prefix, norms in (("enc", self.enc_bn), ("dec", self.dec_bn)):
            for i, bn in enumerate(norms):
                slots += layer(f"{prefix}{i}", bn, "running_mean", "running_var")
        slots.append(("beta", self.__dict__, "beta"))
        return slots

    def trainable(self) -> dict:
        """Live references to every gradient-trained array."""
        return {name: box[key] for name, box, key in self._slots if key not in BUFFER_KEYS}

    def state_arrays(self) -> dict:
        """Everything a checkpoint must persist: weights, buffers, beta."""
        return {name: box[key] for name, box, key in self._slots}

    def load_state(self, arrays: dict):
        missing = {name for name, _, _ in self._slots} - set(arrays)
        if missing:
            raise ShapeError(f"checkpoint missing arrays: {sorted(missing)}")
        values = []
        for name, box, key in self._slots:
            value = np.asarray(arrays[name], dtype=float)
            if value.shape != box[key].shape:
                raise ShapeError(
                    f"array {name!r}: expected shape {box[key].shape}, got {value.shape}"
                )
            values.append(value)
        # assign after full validation so a bad checkpoint leaves no partial state
        for (_, box, key), value in zip(self._slots, values):
            box[key] = value

    def clone_state(self) -> dict:
        return {k: v.copy() for k, v in self.state_arrays().items()}

    # --------------------------------------------------------------- forward

    def encode(self, X: np.ndarray, train: bool = False, rng=None, eps=None):
        """Map windows to a LatentState; returns (latent, cache).

        Infer mode forces eps = 0 so z == mu exactly.  An explicit ``eps``
        array overrides sampling (used by the finite-difference checks).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.config.window:
            raise ShapeError(f"expected [batch x {self.config.window}] windows, got {X.shape}")
        h = X
        caches = []
        for i, (dn, bn) in enumerate(zip(self.enc_dense, self.enc_bn)):
            u, c_dense = dn.forward(h)
            v, c_bn = bn.forward(u, train)
            a, c_relu = relu_forward(v)
            h, c_drop = dropout_forward(a, dropout_rate(i), train, rng)
            caches.append((c_dense, c_bn, c_relu, c_drop))
        mu, c_mu = self.mu_head.forward(h)
        logvar_raw, c_lv = self.logvar_head.forward(h)
        logvar = np.clip(logvar_raw, -LOGVAR_CLIP, LOGVAR_CLIP)
        clip_mask = np.abs(logvar_raw) < LOGVAR_CLIP
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(logvar))):
            raise NumericError("non-finite encoder outputs")
        if eps is None:
            if train:
                eps = (rng or np.random.default_rng()).standard_normal(mu.shape)
            else:
                eps = np.zeros_like(mu)
        z = mu + np.exp(0.5 * logvar) * eps
        latent = LatentState(mu=mu, logvar=logvar, z=z, eps=eps)
        cache = (caches, c_mu, c_lv, clip_mask, latent)
        return latent, cache

    def encode_backward(self, gmu: np.ndarray, glogvar: np.ndarray, cache, grads: dict):
        caches, c_mu, c_lv, clip_mask, _ = cache
        gh_mu, g_mu = self.mu_head.backward(gmu, c_mu)
        gh_lv, g_lv = self.logvar_head.backward(glogvar * clip_mask, c_lv)
        grads["mu.W"], grads["mu.b"] = g_mu["W"], g_mu["b"]
        grads["logvar.W"], grads["logvar.b"] = g_lv["W"], g_lv["b"]
        gh = gh_mu + gh_lv
        for i in range(len(self.enc_dense) - 1, -1, -1):
            c_dense, c_bn, c_relu, c_drop = caches[i]
            ga = dropout_backward(gh, c_drop)
            gv = relu_backward(ga, c_relu)
            gu, g_bn = self.enc_bn[i].backward(gv, c_bn)
            gh, g_dn = self.enc_dense[i].backward(gu, c_dense)
            grads[f"enc{i}.W"], grads[f"enc{i}.b"] = g_dn["W"], g_dn["b"]
            grads[f"enc{i}.gamma"], grads[f"enc{i}.shift"] = g_bn["gamma"], g_bn["shift"]

    def decode(self, Z: np.ndarray, X_in: np.ndarray, train: bool = False, rng=None):
        """Reconstruct windows from latents; returns (xhat, cache).

        Each block computes Dense(h) + alpha_l * skip(h) before batch norm,
        where skip(h) is h cut or zero-padded to the block's width; the
        final dense output receives the global skip beta * X_in.
        """
        Z = np.asarray(Z, dtype=float)
        X_in = np.asarray(X_in, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.config.latent:
            raise ShapeError(f"expected [batch x {self.config.latent}] latents, got {Z.shape}")
        if X_in.shape != (Z.shape[0], self.config.window):
            raise ShapeError("input windows must match latent batch and window size")
        h = Z
        caches = []
        for i, (dn, bn) in enumerate(zip(self.dec_dense, self.dec_bn)):
            u, c_dense = dn.forward(h)
            k = min(h.shape[1], u.shape[1])
            skip_in = np.zeros_like(u)
            skip_in[:, :k] = h[:, :k]
            s = u + self.dec_alpha[i] * skip_in
            v, c_bn = bn.forward(s, train)
            a, c_relu = relu_forward(v)
            h, c_drop = dropout_forward(a, dropout_rate(i), train, rng)
            caches.append((c_dense, skip_in, c_bn, c_relu, c_drop))
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
        gh, g_out = self.out_layer.backward(gxhat, c_out)
        grads["out.W"], grads["out.b"] = g_out["W"], g_out["b"]
        for i in range(len(self.dec_dense) - 1, -1, -1):
            c_dense, skip_in, c_bn, c_relu, c_drop = caches[i]
            ga = dropout_backward(gh, c_drop)
            gv = relu_backward(ga, c_relu)
            gs, g_bn = self.dec_bn[i].backward(gv, c_bn)
            gh, g_dn = self.dec_dense[i].backward(gs, c_dense)
            grads[f"dec{i}.alpha"] = np.array(np.sum(gs * skip_in))
            k = min(gh.shape[1], gs.shape[1])
            gh[:, :k] += self.dec_alpha[i] * gs[:, :k]
            grads[f"dec{i}.W"], grads[f"dec{i}.b"] = g_dn["W"], g_dn["b"]
            grads[f"dec{i}.gamma"], grads[f"dec{i}.shift"] = g_bn["gamma"], g_bn["shift"]
        return gh

    # ------------------------------------------------------------------ loss

    def composite_loss(self, X: np.ndarray, xhat: np.ndarray, latent: LatentState,
                       step: int, t_anneal: int = 5000, lam_temporal: float = 0.1,
                       lam_mean: float = 0.1) -> LossBreakdown:
        X = np.asarray(X, dtype=float)
        if X.shape != xhat.shape:
            raise ShapeError("loss inputs must share a shape")
        if X.shape[1] < 2:
            raise ShapeError("temporal loss undefined for windows shorter than 2")
        recon = float(np.mean((xhat - X) ** 2))
        kl = kl_divergence(latent)
        dx = np.diff(X, axis=1)
        dxhat = np.diff(xhat, axis=1)
        temporal = float(np.mean((dxhat - dx) ** 2))
        mean_pen = float(abs(X.mean() - xhat.mean()))
        beta_t = min(1.0, step / t_anneal) if t_anneal > 0 else 1.0
        return LossBreakdown(recon=recon, kl=kl, temporal=temporal, mean=mean_pen,
                             beta_t=beta_t, lam_temporal=lam_temporal, lam_mean=lam_mean)

    def loss_and_grads(self, X: np.ndarray, step: int, train: bool = True, rng=None,
                       eps=None, t_anneal: int = 5000, lam_temporal: float = 0.1,
                       lam_mean: float = 0.1):
        """Full forward pass plus analytic gradients of the composite loss."""
        X = np.asarray(X, dtype=float)
        latent, enc_cache = self.encode(X, train=train, rng=rng, eps=eps)
        xhat, dec_cache = self.decode(latent.z, X, train=train, rng=rng)
        lb = self.composite_loss(X, xhat, latent, step, t_anneal, lam_temporal, lam_mean)

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
        gz = self.decode_backward(gxhat, dec_cache, grads)
        gmu = gz.copy()
        glogvar = gz * latent.eps * 0.5 * np.exp(0.5 * latent.logvar)
        gmu += lb.beta_t * latent.mu / n_batch
        glogvar += lb.beta_t * 0.5 * (np.exp(latent.logvar) - 1.0) / n_batch
        self.encode_backward(gmu, glogvar, enc_cache, grads)
        return lb, xhat, grads

    # --------------------------------------------------------------- helpers

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        """Deterministic infer-mode encode+decode of a window batch."""
        latent, _ = self.encode(X, train=False)
        xhat, _ = self.decode(latent.z, X, train=False)
        return xhat

    def update_global_skip(self, recon_loss: float) -> float:
        """Recompute beta from reconstruction confidence 1 / (1 + L_recon)."""
        if recon_loss < 0:
            raise ValueError("reconstruction loss must be >= 0")
        confidence = 1.0 / (1.0 + recon_loss)
        self.beta = np.array(self.config.beta0 * np.exp(-self.config.conf_decay * confidence))
        return float(self.beta)
