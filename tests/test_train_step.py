"""The lean training step against the step it replaced.

The oracles are the training step as it was before the in-place rewrite:
the allocating dense, batch-norm, ReLU and dropout layers and the cached
forward and backward of the model (in ``tests/oracles.py``), and below,
global-norm clipping that copies, the per-array Adam update and the
training loop that always accumulates.  The package must reproduce them bit for bit, so every
comparison is ``np.array_equal`` plus a byte comparison, which also tells
-0.0 from 0.0.
"""

import math

import numpy as np
import pytest

from dartclean import layers, model as model_module, optim, trainer
from dartclean.errors import ConfigError, NumericError
from dartclean.layers import BatchNorm, Dense, dropout_backward, dropout_forward
from dartclean.model import ModelConfig, Vae
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
from tests.conftest import perturbed_model
from tests.oracles import (
    oracle_bn_backward,
    oracle_bn_forward,
    oracle_decode,
    oracle_dense_backward,
    oracle_dropout_backward,
    oracle_dropout_forward,
    oracle_encode,
    oracle_loss_and_grads,
)


def identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and a.tobytes() == b.tobytes())


def same_dicts(a, b):
    return list(a) == list(b) and all(identical(a[k], b[k]) for k in a)


# ------------------------------------------------------------------ oracles

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
    y, (xhat, inv_std) = bn.forward(x)
    y_o, (xhat_o, inv_std_o, _) = oracle_bn_forward(ref, x, True)
    assert identical(x, x_before)
    assert identical(y, y_o) and identical(xhat, xhat_o) and identical(inv_std, inv_std_o)
    assert identical(bn.running_mean, ref.running_mean)
    assert identical(bn.running_var, ref.running_var)
    # with momentum 0 the running variance is the batch variance itself
    bn0 = BatchNorm(shape[1], momentum=0.0)
    bn0.forward(x)
    assert identical(bn0.running_var, x.var(axis=0))


def test_batchnorm_forward_backward_matches_oracle():
    rng = np.random.default_rng(5)
    bn, ref = BatchNorm(33), BatchNorm(33)
    for b in (bn, ref):
        b.gamma, b.shift = np.linspace(0.5, 1.5, 33), np.linspace(-0.2, 0.2, 33)
        b.running_mean, b.running_var = np.linspace(-1, 1, 33), np.linspace(0.5, 2.0, 33)
    x = rng.normal(size=(130, 33))
    gy = rng.normal(size=(130, 33))
    gy[3, :5] = -0.0
    y, cache = bn.forward(x)
    y_o, cache_o = oracle_bn_forward(ref, x, True)
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
    y, cache = dropout_forward(x.copy(), p, rng)
    y_o, cache_o = oracle_dropout_forward(x.copy(), p, True, rng_o)
    assert identical(y, y_o)
    # the same draws, in the same order, so the generators stay in step
    assert rng.random() == rng_o.random()
    gy = np.random.default_rng(2).normal(size=x.shape)
    assert identical(dropout_backward(gy.copy(), cache), oracle_dropout_backward(gy, cache_o))


def test_dropout_scales_in_place():
    x = np.ones((8, 8))
    y, _ = dropout_forward(x, 0.2, np.random.default_rng(0))
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
