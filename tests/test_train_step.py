"""The lean training step against the step it replaced.

The oracles are the training step as it was before the in-place rewrite:
the allocating dense, batch-norm, ReLU and dropout layers and the cached
forward and backward of the model (in ``tests/oracles.py``), and below,
global-norm clipping that copies, the per-array Adam update and the
training loop that always accumulates, each over a dict of separate arrays
where the package works on flat vectors.  The package must reproduce them
bit for bit, so every comparison is ``np.array_equal`` plus a byte
comparison, which also tells -0.0 from 0.0.
"""

import math

import numpy as np
import pytest

from dartclean import layers, model as model_module, optim, trainer
from dartclean.errors import ConfigError, NumericError
from dartclean.layers import dropout_backward, dropout_forward
from dartclean.model import ModelConfig, Vae
from dartclean.optim import (
    ADAM_CHUNK,
    Adam,
    clip_by_global_norm,
)
from dartclean.trainer import EpochRecord, TrainConfig, TrainLog, early_stop_check
from tests.conftest import perturbed_model, standalone_layers
from tests.oracles import (
    oracle_bn_backward,
    oracle_bn_forward,
    oracle_decode,
    oracle_dense_backward,
    oracle_dropout_backward,
    oracle_dropout_forward,
    oracle_encode,
    oracle_loss_and_grads,
    oracle_lr_at,
)


def identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and a.tobytes() == b.tobytes())


def same_dicts(a, b):
    return list(a) == list(b) and all(identical(a[k], b[k]) for k in a)


# ------------------------------------------------------------------ oracles

def flat_views(arrays: dict, order=None):
    """``arrays`` copied into one flat vector, laid out in ``order`` (the
    dict's own order by default); returns (vector, views in the dict's
    order, slices in the dict's order)."""
    spans, size = {}, 0
    for name in order or arrays:
        spans[name] = slice(size, size + np.size(arrays[name]))
        size += np.size(arrays[name])
    flat = np.empty(size)
    views = {}
    for name, value in arrays.items():
        views[name] = flat[spans[name]].reshape(np.shape(value))
        views[name][...] = value
    return flat, views, {name: spans[name] for name in arrays}


def oracle_accumulate_gradients(grad_list):
    return {key: sum(np.asarray(g[key]) for g in grad_list) / len(grad_list)
            for key in grad_list[0]}


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
    schedule = (config.schedule, config.base_lr, config.decay_steps, config.t_warmup,
                config.epochs * max(1, math.ceil(len(X_train) / config.batch_size)))
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
            lr = oracle_lr_at(*schedule, global_step, epoch - 1)
            lb, _, grads = oracle_loss_and_grads(
                model, batch, global_step, train=True, rng=rng, t_anneal=config.t_anneal,
                lam_temporal=config.lam_temporal, lam_mean=config.lam_mean)
            assert math.isfinite(lb.total)
            grads.pop("beta")
            clipped, norm = oracle_clip_by_global_norm(grads, config.clip_tau)
            norms.append(min(norm, config.clip_tau))
            pending.append(clipped)
            if len(pending) >= config.accumulation_steps:
                optimizer.step(oracle_accumulate_gradients(pending), lr)
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
            lr=oracle_lr_at(*schedule, global_step, epoch - 1),
            grad_norm=grad_norm, val_recon=val.recon,
        ))
        if val.total < best_val:
            best_val, best_state = val.total, model.clone_state()
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
    bn, ref = (standalone_layers(1, shape[1], momentum=0.9)[1] for _ in range(2))
    bn.gamma[...] = rng.uniform(0.5, 1.5, shape[1])
    bn.shift[...] = rng.normal(0.0, 0.2, shape[1])
    ref.gamma[...], ref.shift[...] = bn.gamma, bn.shift
    x_before = x.copy()
    y, (xhat, inv_std) = bn.forward(x)
    y_o, (xhat_o, inv_std_o, _) = oracle_bn_forward(ref, x, True)
    assert identical(x, x_before)
    assert identical(y, y_o) and identical(xhat, xhat_o) and identical(inv_std, inv_std_o)
    assert identical(bn.running_mean, ref.running_mean)
    assert identical(bn.running_var, ref.running_var)
    # with momentum 0 the running variance is the batch variance itself
    bn0 = standalone_layers(1, shape[1], momentum=0.0)[1]
    bn0.forward(x)
    assert identical(bn0.running_var, x.var(axis=0))


def test_batchnorm_forward_backward_matches_oracle():
    rng = np.random.default_rng(5)
    bn, ref = (standalone_layers(1, 33)[1] for _ in range(2))
    for b in (bn, ref):
        b.gamma[...], b.shift[...] = np.linspace(0.5, 1.5, 33), np.linspace(-0.2, 0.2, 33)
        b.running_mean[...] = np.linspace(-1, 1, 33)
        b.running_var[...] = np.linspace(0.5, 2.0, 33)
    x = rng.normal(size=(130, 33))
    gy = rng.normal(size=(130, 33))
    gy[3, :5] = -0.0
    y, cache = bn.forward(x)
    y_o, cache_o = oracle_bn_forward(ref, x, True)
    assert identical(y, y_o) and all(identical(a, b) for a, b in zip(cache, cache_o))
    gy_before = gy.copy()
    grads = {"gamma": np.empty(33), "shift": np.empty(33)}
    gx = bn.backward(gy, cache, grads["gamma"], grads["shift"])
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
    dense = standalone_layers(48, 64, rng)[0]
    x, gy = rng.normal(size=(100, 48)), rng.normal(size=(100, 64))
    grads = {"W": np.empty((64, 48)), "b": np.empty(64)}
    gx = dense.backward(gy, x, grads["W"], grads["b"], input_grad=False)
    gx_o, grads_o = oracle_dense_backward(dense, gy, x)
    assert gx is None and same_dicts(grads, grads_o)
    assert identical(dense.backward(gy, x, np.empty((64, 48)), np.empty(64)), gx_o)


@pytest.mark.parametrize("offset", [0, 1, 3, 5])
def test_products_and_sums_into_unaligned_views_match_allocating(offset):
    """The gradients land in views of one flat vector at any element
    offset, so at any alignment; BLAS and the reductions must round there
    as they do into a fresh array."""
    rng = np.random.default_rng(offset)
    gy, x = rng.normal(size=(128, 512)), rng.normal(size=(128, 48))
    flat = np.empty(offset + 512 * 48 + 512 + 1)
    gW = flat[offset:offset + 512 * 48].reshape(512, 48)
    gb = flat[offset + 512 * 48:-1]
    total = flat[-1:].reshape(())
    np.matmul(gy.T, x, out=gW)
    gy.sum(axis=0, out=gb)
    gy.sum(out=total)
    assert identical(gW, gy.T @ x)
    assert identical(gb, gy.sum(axis=0))
    assert identical(total, np.array(np.sum(gy)))


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


def dense_weights_first(names):
    return sorted(names, key=lambda name: not name.endswith(".W"))


def adam_pair(seed=0):
    """adam_params laid out flat, dense weights first as in a model, and a
    separate copy for the oracle; returns (flat, views, spans, decayed,
    oracle params)."""
    params = adam_params(seed)
    flat, views, spans = flat_views(params, dense_weights_first(params))
    decayed = sum(p.size for name, p in params.items() if name.endswith(".W"))
    return flat, views, spans, decayed, adam_params(seed)


@pytest.mark.parametrize("weight_decay", [1e-5, 0.0])
def test_adam_matches_oracle(weight_decay):
    flat, params, spans, decayed, params_o = adam_pair()
    # the decayed prefix (l.W, m.W) ends inside a chunk, a chunk of it
    # crosses from l.W into m.W, and one after it from l.b into l.gamma
    assert decayed % ADAM_CHUNK and spans["m.W"].start % ADAM_CHUNK
    assert (spans["l.gamma"].start - decayed) % ADAM_CHUNK
    opt = Adam(flat, decayed, weight_decay=weight_decay)
    ref = OracleAdam(params_o, weight_decay=weight_decay)
    rng = np.random.default_rng(11)
    for step in range(25):
        grads = adam_grads(params, rng, scale=10.0 ** -(step % 4))
        grad = flat_views(grads, dense_weights_first(grads))[0]
        opt.step(grad, lr=1e-3 * (1 + step % 3))
        ref.step(grads, lr=1e-3 * (1 + step % 3))
        assert same_dicts(params, params_o)
        for moment, moment_o in ((opt.m, ref.m), (opt.v, ref.v)):
            assert same_dicts({k: moment[s].reshape(params[k].shape) for k, s in spans.items()},
                              moment_o)
    assert opt.t == ref.t == 25


def test_adam_decays_exactly_the_prefix():
    """With zero gradients a step only decays; the prefix ends mid-chunk,
    and the element after it, in the same chunk of the flat vector, keeps
    its value."""
    params = np.random.default_rng(2).normal(size=3 * ADAM_CHUNK)
    before = params.copy()
    decayed = ADAM_CHUNK + 5
    Adam(params, decayed, weight_decay=0.5).step(np.zeros_like(params), lr=0.1)
    assert identical(params[:decayed], before[:decayed] - before[:decayed] * (0.1 * 0.5))
    assert identical(params[decayed:], before[decayed:])


def test_adam_non_finite_last_gradient_leaves_everything_untouched():
    rng = np.random.default_rng(4)
    params = rng.normal(size=200 * 120 + 400)
    opt = Adam(params, 200 * 120, weight_decay=1e-5)
    for _ in range(3):
        opt.step(rng.normal(size=params.size), lr=1e-3)
    before = (params.copy(), opt.m.copy(), opt.v.copy(), opt.t)
    for bad in (np.nan, np.inf, -np.inf):
        grad = rng.normal(size=params.size)
        grad[-1] = bad
        with pytest.raises(NumericError):
            opt.step(grad, lr=1e-3)
        assert identical(params, before[0])
        assert identical(opt.m, before[1]) and identical(opt.v, before[2])
        assert opt.t == before[3]


def test_adam_rejects_parameters_it_cannot_update_in_place():
    with pytest.raises(ConfigError, match="C-contiguous"):
        Adam(np.zeros((4, 6))[:, ::2], 0, weight_decay=1e-5)
    with pytest.raises(ConfigError, match="C-contiguous"):
        Adam(np.zeros((4, 6)), 0, weight_decay=1e-5)


def negative_zeros(a) -> int:
    return int(np.count_nonzero((a == 0) & np.signbit(a)))


def test_single_step_accumulation_skip_is_bit_identical_with_negative_zeros():
    """The mean of one accumulated gradient is ``0.0 + g``, which turns
    -0.0 into +0.0; the optimizer must not tell the two apart."""
    flat, params, _, decayed, _ = adam_pair(1)
    opt, ref = Adam(flat, decayed, 1e-5), Adam(flat.copy(), decayed, 1e-5)
    rng = np.random.default_rng(9)
    for step in range(12):
        grad = flat_views(adam_grads(params, rng), dense_weights_first(params))[0]
        if step < 3:   # zero-signed gradients while m and v are still +0.0
            grad *= -0.0
        averaged = 0.0 + grad
        assert negative_zeros(grad)
        assert not negative_zeros(averaged)
        opt.step(grad, lr=1e-3)
        ref.step(averaged, lr=1e-3)
        assert identical(opt.params, ref.params)
        assert identical(opt.m, ref.m) and identical(opt.v, ref.v)
        assert not negative_zeros(opt.m)


@pytest.mark.parametrize("tau", [1e-3, 1e9], ids=["active", "inactive"])
def test_clip_matches_oracle_in_place(tau):
    rng = np.random.default_rng(6)
    grads = {"a": rng.normal(size=(40, 30)), "b": rng.normal(size=30), "c": np.array(-0.5)}
    grads["a"][0, :4] = -0.0
    expected, norm_o = oracle_clip_by_global_norm(grads, tau)
    # laid out in another order than the dict's, which the norm sums in
    flat, views, spans = flat_views(grads, ["c", "a", "b"])
    norm = clip_by_global_norm(flat, list(spans.values()), tau)
    assert norm == norm_o and norm > 0
    assert same_dicts(views, expected)


def test_global_norm_matches_oracle():
    rng = np.random.default_rng(8)
    grads = {f"g{i}": rng.normal(size=shape) for i, shape in
             enumerate([(128, 512), (512,), (), (48, 512)])}
    flat, _, spans = flat_views(grads, ["g3", "g1", "g0", "g2"])
    norm = clip_by_global_norm(flat, spans.values(), math.inf)
    assert norm == oracle_clip_by_global_norm(grads, 1.0)[1]
    assert clip_by_global_norm(np.empty(0), [], math.inf) == 0.0


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
        assert same_dicts(model.state, ref.state)
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
    assert same_dicts(model.state, ref.state)


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


def assert_flat(model):
    """Every trainable array is the view of ``model.params`` at its span,
    dense weights first, and every gradient ``loss_and_grads`` returns is
    the view of ``model.grad`` at the same span."""
    trainable = model.trainable()
    assert set(trainable) == set(model.spans)
    spans = sorted(model.spans.values(), key=lambda span: span.start)
    assert [span.start for span in spans] == [0] + [span.stop for span in spans[:-1]]
    assert spans[-1].stop == model.params.size == model.grad.size
    weights = [span for name, span in model.spans.items() if name.endswith(".W")]
    assert max(span.stop for span in weights) == model.decayed == sum(
        span.stop - span.start for span in weights)
    for name, arr in trainable.items():
        assert arr.base is model.params and arr.flags.c_contiguous, name
        assert arr.__array_interface__["data"][0] == \
            model.params[model.spans[name]].__array_interface__["data"][0], name
    _, _, grads = model.loss_and_grads(tide_windows(60)[:8], step=0)
    grads.pop("beta")
    assert set(grads) == set(model.spans)
    for name, g in grads.items():
        assert g.base is model.grad and g.shape == trainable[name].shape, name
        assert g.__array_interface__["data"][0] == \
            model.grad[model.spans[name]].__array_interface__["data"][0], name


def test_trainable_arrays_stay_views_of_the_flat_vector():
    """After construction, ``load_state``, the best-state restore that ends
    ``trainer.train`` and a second run in the same process, Adam's flat
    vector is still the model's parameters."""
    X = tide_windows()
    model = Vae(ModelConfig(hidden=(32, 16)), seed=4)
    assert_flat(model)
    model.load_state(Vae(model.config, seed=5).clone_state())
    assert_flat(model)
    cfg = TrainConfig(epochs=2, batch_size=128, base_lr=1e-3, t_warmup=0, seed=1)
    for _ in range(2):
        before = model.params.copy()
        trainer.train(model, X, cfg)
        assert not np.array_equal(model.params, before)
        assert_flat(model)


def test_no_module_level_buffers():
    for module in (layers, model_module, optim, trainer):
        arrays = [name for name, value in vars(module).items()
                  if isinstance(value, np.ndarray)]
        assert arrays == [], module.__name__
