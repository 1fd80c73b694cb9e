"""The lean training step against the step it replaced.

The oracles below are the training step as it was before the in-place
rewrite: the allocating dense, batch-norm, ReLU and dropout layers, the
cached forward and backward of the model, global-norm clipping that
copies, the per-array Adam update and the training loop that always
accumulates.  The package must reproduce them bit for bit, so every
comparison is ``np.array_equal`` plus a byte comparison, which also tells
-0.0 from 0.0.
"""

import math

import numpy as np
import pytest

from dartclean import layers, model as model_module, optim, trainer
from dartclean.errors import ConfigError, NumericError
from dartclean.layers import BatchNorm, Dense, dropout_backward, dropout_forward, dropout_rate
from dartclean.model import LOGVAR_CLIP, LatentState, ModelConfig, Vae
from dartclean.optim import (
    ADAM_CHUNK,
    Adam,
    LrSchedule,
    PlateauTracker,
    accumulate_gradients,
    clip_by_global_norm,
    global_norm,
)
from dartclean.trainer import EpochRecord, TrainConfig, TrainLog, early_stop_check


def identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and a.tobytes() == b.tobytes())


def same_dicts(a, b):
    return list(a) == list(b) and all(identical(a[k], b[k]) for k in a)


# ------------------------------------------------------------------ oracles

def oracle_dense_forward(dense, x):
    return x @ dense.W.T + dense.b, x


def oracle_dense_backward(dense, gy, x):
    return gy @ dense.W, {"W": gy.T @ x, "b": gy.sum(axis=0)}


def oracle_bn_forward(bn, x, train):
    if train:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        bn.running_mean = bn.momentum * bn.running_mean + (1 - bn.momentum) * mean
        bn.running_var = bn.momentum * bn.running_var + (1 - bn.momentum) * var
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
    return y + model.beta * X_in, (caches, c_out, X_in)


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


def oracle_clip_by_global_norm(grads, tau):
    norm = math.sqrt(sum(float(np.sum(np.asarray(g) ** 2)) for g in grads.values()))
    scale = min(1.0, tau / norm) if norm > 0 else 1.0
    if scale >= 1.0:
        return dict(grads), norm
    return {k: np.asarray(g) * scale for k, g in grads.items()}, norm


class OracleAdam:
    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-5):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.decay_names = {name for name in params if name.endswith(".W")}
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads, lr):
        for g in grads.values():
            if not np.all(np.isfinite(g)):
                raise NumericError("non-finite gradient; optimizer step aborted")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = np.asarray(grads[name])
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            mhat = self.m[name] / bc1
            vhat = self.v[name] / bc2
            if name in self.decay_names and self.weight_decay > 0:
                p -= lr * self.weight_decay * p
            p -= lr * mhat / (np.sqrt(vhat) + self.eps)


def oracle_validation_loss(model, X_val, step, config):
    latent, _ = oracle_encode(model, X_val, train=False)
    xhat, _ = oracle_decode(model, latent.z, X_val, train=False)
    return model.composite_loss(X_val, xhat, latent, step, config.t_anneal,
                                config.lam_temporal, config.lam_mean)


def oracle_train(model, X, config):
    """The training loop before the lean step, less its divergence paths,
    which these tests never reach."""
    n_val = max(1, int(round(config.val_fraction * len(X))))
    X_train, X_val = X[:-n_val], X[-n_val:]
    rng = np.random.default_rng(config.seed)
    schedule = LrSchedule(
        variant=config.schedule, base_lr=config.base_lr,
        decay_steps=config.decay_steps, t_warmup=config.t_warmup,
        total_steps=config.epochs * max(1, math.ceil(len(X_train) / config.batch_size)),
        apply_warmup=config.schedule != "warmup",
    )
    plateau = PlateauTracker(patience=config.patience, min_delta=config.min_delta)
    optimizer = OracleAdam(model.trainable(), weight_decay=config.weight_decay)
    log = TrainLog()
    val_history, kl_history = [], []
    best_val, best_state = math.inf, model.clone_state()
    global_step, reason, pending = 0, "epochs_exhausted", []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(X_train))
        sums, norms, n_batches = np.zeros(5), [], 0
        for start in range(0, len(X_train), config.batch_size):
            batch = X_train[order[start:start + config.batch_size]]
            lr = schedule.lr_at(global_step, epoch - 1, plateau.multiplier)
            lb, _, grads = oracle_loss_and_grads(
                model, batch, global_step, train=True, rng=rng, t_anneal=config.t_anneal,
                lam_temporal=config.lam_temporal, lam_mean=config.lam_mean)
            assert math.isfinite(lb.total)
            grads.pop("beta")
            clipped, norm = oracle_clip_by_global_norm(grads, config.clip_tau)
            norms.append(min(norm, config.clip_tau))
            pending.append(clipped)
            if len(pending) >= config.accumulation_steps:
                optimizer.step(accumulate_gradients(pending), lr)
                pending = []
            model.update_global_skip(lb.recon)
            sums += (lb.recon, lb.kl, lb.temporal, lb.mean, lb.total)
            n_batches += 1
            global_step += 1
        val = oracle_validation_loss(model, X_val, global_step, config)
        val_history.append(val.total)
        kl_history.append(sums[1] / n_batches)
        grad_norm = float(np.mean(norms))
        log.records.append(EpochRecord(
            epoch=epoch, recon=sums[0] / n_batches, kl=sums[1] / n_batches,
            temporal=sums[2] / n_batches, mean=sums[3] / n_batches,
            total=sums[4] / n_batches, val_total=val.total,
            lr=schedule.lr_at(global_step, epoch - 1, plateau.multiplier),
            grad_norm=grad_norm, wall_time=0.0, val_recon=val.recon,
        ))
        if val.total < best_val:
            best_val, best_state = val.total, model.clone_state()
        plateau.observe(val.total)
        stop, why = early_stop_check(val_history, kl_history, grad_norm, config)
        if stop:
            reason = why
            break
    model.load_state(best_state)
    return log, reason


# -------------------------------------------------------------------- data

def perturbed_model(hidden, seed=0, window=48):
    """A model with batch-norm buffers, affine parameters, biases and skip
    scales moved off their initial values; one skip scale is negative, so
    the zero-padded skip adds -0.0."""
    model = Vae(ModelConfig(window=window, hidden=hidden), seed=seed)
    rng = np.random.default_rng(seed + 100)
    for bn in model.enc_bn + model.dec_bn:
        bn.running_mean = rng.normal(0.0, 0.5, bn.running_mean.shape)
        bn.running_var = rng.uniform(0.3, 3.0, bn.running_var.shape)
        bn.gamma = rng.uniform(0.5, 1.5, bn.gamma.shape)
        bn.shift = rng.normal(0.0, 0.2, bn.shift.shape)
    for dense in model.enc_dense + model.dec_dense + [model.mu_head, model.logvar_head,
                                                      model.out_layer]:
        dense.b = rng.normal(0.0, 0.1, dense.b.shape)
    # assigned item by item: the parameter table holds the list itself
    for i, alpha in enumerate(rng.uniform(-1.0, 1.0, len(model.dec_alpha))):
        model.dec_alpha[i] = np.array(alpha)
    model.dec_alpha[0] = np.array(-0.4)
    model.beta = np.array(0.6)
    return model


def twin(model):
    other = Vae(model.config, seed=1)
    other.load_state(model.clone_state())
    return other


def tide_windows(n=700, w=48, seed=0):
    """Stride-1 windows of a noisy two-tide series with a few spikes."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    x = np.sin(2 * np.pi * t / 96.0) + 0.4 * np.sin(2 * np.pi * t / 49.0 + 1.0)
    x += rng.normal(0.0, 0.05, n)
    x[rng.choice(n, 6, replace=False)] += 3.0
    x = (x - x.mean()) / x.std()
    return np.lib.stride_tricks.sliding_window_view(x, w).copy()


WIDTHS = [(128, 64, 32), ModelConfig().hidden]
WIDTH_IDS = ["128x64x32", "512x256x128"]


# ------------------------------------------------------------------ layers

@pytest.mark.parametrize("shape", [(1, 4), (7, 3), (128, 512), (77, 33)])
def test_batchnorm_train_forward_matches_oracle(shape):
    rng = np.random.default_rng(shape[0])
    x = rng.normal(0.3, 2.0, size=shape)
    x[0, 0] = -0.0
    bn, ref = BatchNorm(shape[1], momentum=0.9), BatchNorm(shape[1], momentum=0.9)
    bn.gamma = rng.uniform(0.5, 1.5, shape[1])
    bn.shift = rng.normal(0.0, 0.2, shape[1])
    ref.gamma, ref.shift = bn.gamma.copy(), bn.shift.copy()
    x_before = x.copy()
    y, (xhat, inv_std, train) = bn.forward(x, train=True)
    y_o, (xhat_o, inv_std_o, _) = oracle_bn_forward(ref, x, True)
    assert identical(x, x_before)
    assert identical(y, y_o) and identical(xhat, xhat_o) and identical(inv_std, inv_std_o)
    assert train is True
    assert identical(bn.running_mean, ref.running_mean)
    assert identical(bn.running_var, ref.running_var)
    # with momentum 0 the running variance is the batch variance itself
    bn0 = BatchNorm(shape[1], momentum=0.0)
    bn0.forward(x, train=True)
    assert identical(bn0.running_var, x.var(axis=0))


@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_forward_backward_matches_oracle(train):
    rng = np.random.default_rng(5)
    bn, ref = BatchNorm(33), BatchNorm(33)
    for b in (bn, ref):
        b.gamma, b.shift = np.linspace(0.5, 1.5, 33), np.linspace(-0.2, 0.2, 33)
        b.running_mean, b.running_var = np.linspace(-1, 1, 33), np.linspace(0.5, 2.0, 33)
    x = rng.normal(size=(130, 33))
    gy = rng.normal(size=(130, 33))
    gy[3, :5] = -0.0
    y, cache = bn.forward(x, train=train)
    y_o, cache_o = oracle_bn_forward(ref, x, train)
    assert identical(y, y_o) and all(identical(a, b) for a, b in zip(cache, cache_o))
    gy_before = gy.copy()
    gx, grads = bn.backward(gy, cache)
    gx_o, grads_o = oracle_bn_backward(ref, gy, cache_o)
    assert identical(gy, gy_before)
    assert identical(gx, gx_o) and same_dicts(grads, grads_o)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.0])
def test_dropout_matches_oracle(p):
    x = np.random.default_rng(1).normal(size=(96, 40))
    x[x < 0] = 0.0
    rng, rng_o = np.random.default_rng(3), np.random.default_rng(3)
    y, cache = dropout_forward(x.copy(), p, True, rng)
    y_o, cache_o = oracle_dropout_forward(x.copy(), p, True, rng_o)
    assert identical(y, y_o)
    # the same draws, in the same order, so the generators stay in step
    assert rng.random() == rng_o.random()
    gy = np.random.default_rng(2).normal(size=x.shape)
    assert identical(dropout_backward(gy.copy(), cache), oracle_dropout_backward(gy, cache_o))


def test_dropout_scales_in_place():
    x = np.ones((8, 8))
    y, _ = dropout_forward(x, 0.2, True, np.random.default_rng(0))
    assert y is x


def test_first_layer_skips_input_gradient():
    rng = np.random.default_rng(0)
    dense = Dense(48, 64, rng)
    x, gy = rng.normal(size=(100, 48)), rng.normal(size=(100, 64))
    gx, grads = dense.backward(gy, x, input_grad=False)
    gx_o, grads_o = oracle_dense_backward(dense, gy, x)
    assert gx is None and same_dicts(grads, grads_o)
    assert identical(dense.backward(gy, x)[0], gx_o)


# ------------------------------------------------------------- optimizer

def adam_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "l.W": rng.normal(size=(300, 100)),          # several chunks, the last partial
        "l.b": rng.normal(size=ADAM_CHUNK + 1),      # one element past a chunk
        "l.gamma": rng.normal(size=ADAM_CHUNK),
        "l.alpha": np.array(0.7),
        "m.W": rng.normal(size=(3, 5)),
    }


def adam_grads(params, rng, scale=1e-2):
    grads = {}
    for name, p in params.items():
        g = rng.normal(size=p.shape) * scale
        if g.ndim:
            g.reshape(-1)[::7] = -0.0
            g.reshape(-1)[3::11] = 0.0
        grads[name] = g
    return grads


@pytest.mark.parametrize("weight_decay", [1e-5, 0.0])
def test_adam_matches_oracle(weight_decay):
    params, params_o = adam_params(), adam_params()
    opt = Adam(params, weight_decay=weight_decay)
    ref = OracleAdam(params_o, weight_decay=weight_decay)
    rng = np.random.default_rng(11)
    for step in range(25):
        grads = adam_grads(params, rng, scale=10.0 ** -(step % 4))
        opt.step(grads, lr=1e-3 * (1 + step % 3))
        ref.step(grads, lr=1e-3 * (1 + step % 3))
        assert same_dicts(params, params_o)
        assert same_dicts(opt.m, ref.m) and same_dicts(opt.v, ref.v)
    assert opt.t == ref.t == 25


def test_adam_non_finite_last_gradient_leaves_everything_untouched():
    rng = np.random.default_rng(4)
    params = {"l.W": rng.normal(size=(200, 120)), "l.b": rng.normal(size=200),
              "l.gamma": rng.uniform(0.5, 1.5, 200)}
    opt = Adam(params)
    for _ in range(3):
        opt.step({k: rng.normal(size=v.shape) for k, v in params.items()}, lr=1e-3)
    before = ({k: v.copy() for k, v in params.items()},
              {k: v.copy() for k, v in opt.m.items()},
              {k: v.copy() for k, v in opt.v.items()}, opt.t)
    for bad in (np.nan, np.inf, -np.inf):
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        grads["l.gamma"][-1] = bad
        with pytest.raises(NumericError):
            opt.step(grads, lr=1e-3)
        assert same_dicts(params, before[0])
        assert same_dicts(opt.m, before[1]) and same_dicts(opt.v, before[2])
        assert opt.t == before[3]


def test_adam_rejects_parameters_it_cannot_update_in_place():
    with pytest.raises(ConfigError, match="C-contiguous"):
        Adam({"l.W": np.zeros((4, 6))[:, ::2]})


def negative_zeros(a) -> int:
    return int(np.count_nonzero((a == 0) & np.signbit(a)))


def test_single_step_accumulation_skip_is_bit_identical_with_negative_zeros():
    """``accumulate_gradients([g])`` is ``0 + g``, which turns -0.0 into
    +0.0; the optimizer must not tell the two apart."""
    params, params_o = adam_params(1), adam_params(1)
    opt, ref = Adam(params), Adam(params_o)
    rng = np.random.default_rng(9)
    for step in range(12):
        grads = adam_grads(params, rng)
        if step < 3:   # zero-signed gradients while m and v are still +0.0
            for g in grads.values():
                g *= -0.0
        averaged = accumulate_gradients([grads])
        assert any(negative_zeros(g) for g in grads.values())
        assert not any(negative_zeros(g) for g in averaged.values())
        opt.step(grads, lr=1e-3)
        ref.step(averaged, lr=1e-3)
        assert same_dicts(params, params_o)
        assert same_dicts(opt.m, ref.m) and same_dicts(opt.v, ref.v)
        assert not any(negative_zeros(m) for m in opt.m.values())


@pytest.mark.parametrize("tau", [1e-3, 1e9], ids=["active", "inactive"])
def test_clip_matches_oracle_in_place(tau):
    rng = np.random.default_rng(6)
    grads = {"a": rng.normal(size=(40, 30)), "b": rng.normal(size=30), "c": np.array(-0.5)}
    grads["a"][0, :4] = -0.0
    expected, norm_o = oracle_clip_by_global_norm(grads, tau)
    arrays = dict(grads)
    clipped, norm = clip_by_global_norm(grads, tau)
    assert norm == norm_o and norm > 0
    assert clipped is grads and all(clipped[k] is arrays[k] for k in arrays)
    assert same_dicts(clipped, expected)


def test_clip_rejects_a_value_it_cannot_scale_in_place():
    grads = {"a": np.array([2.0, 0.0]), "s": np.float64(3.0)}
    with pytest.raises(ConfigError, match="'s'"):
        clip_by_global_norm(grads, 1.0)
    assert grads["a"].tobytes() == np.array([2.0, 0.0]).tobytes()


def test_global_norm_matches_oracle():
    rng = np.random.default_rng(8)
    grads = {f"g{i}": rng.normal(size=shape) for i, shape in
             enumerate([(128, 512), (512,), (), (48, 512)])}
    assert global_norm(grads) == oracle_clip_by_global_norm(grads, 1.0)[1]
    assert global_norm({}) == 0.0


# ----------------------------------------------------------------- model

@pytest.mark.parametrize("hidden", WIDTHS, ids=WIDTH_IDS)
def test_loss_and_grads_matches_oracle(hidden):
    model = perturbed_model(hidden)
    ref = twin(model)
    X = tide_windows(300)[:128]
    for step in range(3):
        rng, rng_o = np.random.default_rng(step), np.random.default_rng(step)
        lb, xhat, grads = model.loss_and_grads(X, step=step * 700, rng=rng, t_anneal=1000)
        lb_o, xhat_o, grads_o = oracle_loss_and_grads(ref, X, step * 700, rng=rng_o,
                                                      t_anneal=1000)
        assert vars(lb) == vars(lb_o)
        assert identical(xhat, xhat_o)
        assert same_dicts(grads, grads_o)
        assert same_dicts(model.state_arrays(), ref.state_arrays())
        assert rng.random() == rng_o.random()


@pytest.mark.parametrize("rows", [1, 75, 1023, 2085])
def test_validation_loss_matches_oracle(rows):
    model = perturbed_model((128, 64, 32))
    X_val = np.random.default_rng(rows).normal(size=(rows, 48))
    X_val[:, 3] *= 40.0           # drive some log-variances into the clip
    cfg = TrainConfig(t_anneal=50)
    val = trainer._validation_loss(model, X_val, 30, cfg)
    assert vars(val) == vars(oracle_validation_loss(model, X_val, 30, cfg))
    logvar = np.empty((rows, 16))
    z, xhat = model.infer(X_val, logvar_out=logvar)
    latent, _ = oracle_encode(model, X_val, train=False)
    z_plain, xhat_plain = model.infer(X_val)
    assert identical(logvar, latent.logvar)
    assert identical(z, z_plain) and identical(xhat, xhat_plain)


# --------------------------------------------------------------- trainer

def run_pair(model, X, cfg):
    ref = twin(model)
    log, reason = trainer.train(model, X, cfg)
    log_o, reason_o = oracle_train(ref, X, cfg)
    assert reason == reason_o
    assert log.to_csv() == log_o.to_csv()
    assert [r.val_recon for r in log.records] == [r.val_recon for r in log_o.records]
    assert same_dicts(model.state_arrays(), ref.state_arrays())


def test_training_runs_match_oracle_in_one_process():
    """Runs of several widths, clipping states and accumulation counts in a
    row, then a run on a model restored with ``load_state``: scratch that
    outlived its run, or a buffer sized for another model, would show."""
    X = tide_windows()
    recipe = dict(epochs=2, batch_size=128, base_lr=1e-3, t_warmup=0, t_anneal=400, seed=3)
    trained = None
    for hidden, clip_tau, accumulation in [((128, 64, 32), 1.0, 1),
                                           (ModelConfig().hidden, 1e-3, 1),
                                           ((128, 64, 32), 1e9, 2),
                                           (ModelConfig().hidden, 1e9, 1),
                                           ((128, 64, 32), 1e-3, 2)]:
        model = Vae(ModelConfig(hidden=hidden), seed=len(hidden) + accumulation)
        run_pair(model, X, TrainConfig(clip_tau=clip_tau, accumulation_steps=accumulation,
                                       **recipe))
        trained = model if hidden == (128, 64, 32) else trained
    restored = Vae(trained.config, seed=99)
    restored.load_state(trained.clone_state())
    run_pair(restored, X, TrainConfig(clip_tau=0.5, **recipe))


def test_no_module_level_buffers():
    for module in (layers, model_module, optim, trainer):
        arrays = [name for name, value in vars(module).items()
                  if isinstance(value, np.ndarray)]
        assert arrays == [], module.__name__
