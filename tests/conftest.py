import base64
import tracemalloc

import numpy as np
import pytest

from dartclean.layers import BatchNorm, Dense
from dartclean.model import ModelConfig, Vae


def tiny_model(window=6, hidden=(5,), latent=4, seed=0, **kw):
    return Vae(ModelConfig(window=window, hidden=hidden, latent=latent, **kw), seed=seed)


def as_version_2(doc: dict) -> dict:
    """A version-3 checkpoint document as version 2 stored it: every array
    as nested JSON lists of its numbers."""
    return dict(doc, format_version=2, params={
        name: np.frombuffer(base64.b64decode(entry["data"]), "<f8").reshape(entry["shape"]).tolist()
        for name, entry in doc["params"].items()})


def traced_peak(fn, *args):
    """(``fn(*args)``, the peak of traced memory while it ran above what
    was traced when it began, in bytes)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def standalone_layers(in_dim, out_dim, rng=None, momentum=0.9, eps=1e-5):
    """A Dense [in_dim -> out_dim] and a BatchNorm of width ``out_dim``
    outside any model, over arrays at a fresh model's initial values:
    He-drawn weights from ``rng`` (zeros without one), zero biases and
    shifts, unit scales, zero running means and unit running variances."""
    W = (np.zeros((out_dim, in_dim)) if rng is None
         else rng.standard_normal((out_dim, in_dim)) * np.sqrt(2.0 / in_dim))
    return (Dense(W, np.zeros(out_dim)),
            BatchNorm(np.ones(out_dim), np.zeros(out_dim), np.zeros(out_dim), np.ones(out_dim),
                      momentum, eps))


def perturbed_model(hidden, seed=0, window=48):
    """A model with batch-norm buffers, affine parameters, biases and skip
    scales moved off their initial values, so the frozen batch norm and
    both skips do real arithmetic; one skip scale is negative, so the
    zero-padded skip adds -0.0.  Every value is written into the model's
    own arrays: the trainable ones are views of its flat parameter vector."""
    model = Vae(ModelConfig(window=window, hidden=hidden), seed=seed)
    rng = np.random.default_rng(seed + 100)
    for bn in model.enc_bn + model.dec_bn:
        bn.running_mean[...] = rng.normal(0.0, 0.5, bn.running_mean.shape)
        bn.running_var[...] = rng.uniform(0.3, 3.0, bn.running_var.shape)
        bn.gamma[...] = rng.uniform(0.5, 1.5, bn.gamma.shape)
        bn.shift[...] = rng.normal(0.0, 0.2, bn.shift.shape)
    for dense in model.enc_dense + model.dec_dense + [model.mu_head, model.logvar_head,
                                                      model.out_layer]:
        dense.b[...] = rng.normal(0.0, 0.1, dense.b.shape)
    for alpha, value in zip(model.dec_alpha, rng.uniform(-1.0, 1.0, len(model.dec_alpha))):
        alpha[...] = value
    model.dec_alpha[0][...] = -0.4
    model.beta[...] = 0.6
    return model


def plain_decoder(model, beta, bias=0.0):
    """Zero the decoder's weights, biases and skips, so that the infer-mode
    decoder maps each window to ``beta * window + bias``."""
    for layer in model.dec_dense + [model.out_layer]:
        layer.W[:] = 0.0
        layer.b[:] = 0.0
    for alpha in model.dec_alpha:
        alpha[...] = 0.0
    for bn in model.dec_bn:
        bn.shift[:] = 0.0
    model.out_layer.b[:] = bias
    model.beta[...] = beta
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
