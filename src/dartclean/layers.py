"""Dense / batch-norm / activation layers with hand-derived backward passes.

Every layer holds parameter arrays its caller supplies and never rebinds
them (in a :class:`~dartclean.model.Vae`, the arrays of its state table).
``forward`` returns an explicit cache that ``backward`` consumes;
``backward`` writes the parameter gradients into arrays the caller
supplies.  No autodiff graph: the architecture is fixed, so the gradients
are written out by hand and validated against finite differences in the
test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def dropout_rate(layer_index: int) -> float:
    """Depth-adjusted dropout probability: min(0.1 + 0.05 * l, 0.3)."""
    if layer_index < 0:
        raise ValueError("layer index must be >= 0")
    return min(0.1 + 0.05 * layer_index, 0.3)


class Dense:
    """Affine layer y = x @ W.T + b with W of shape [out, in]."""

    def __init__(self, W: np.ndarray, b: np.ndarray):
        self.W = W
        self.b = b

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]

    def forward(self, x: np.ndarray):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"dense layer expects input width {self.in_dim}, got {x.shape}"
            )
        y = x @ self.W.T
        y += self.b
        return y, x

    def backward(self, gy: np.ndarray, cache, gW: np.ndarray, gb: np.ndarray,
                 input_grad: bool = True):
        """Writes the weight and bias gradients into ``gW`` and ``gb``;
        returns gx, or None when ``input_grad`` is false, for a first layer
        whose input gradient nobody reads."""
        x = cache
        np.matmul(gy.T, x, out=gW)
        gy.sum(axis=0, out=gb)
        return gy @ self.W if input_grad else None


class BatchNorm:
    """Per-feature batch normalization with running statistics.

    ``forward`` normalizes by batch statistics (population variance) and
    updates the running buffers in place; only ``Vae.infer`` applies them.  It
    computes ``x - mean`` once, for the variance and for ``xhat``, with the
    same operations as ``x.var(axis=0)``; its backward works through one
    temporary besides the input gradient it returns.
    """

    def __init__(self, gamma: np.ndarray, shift: np.ndarray, running_mean: np.ndarray,
                 running_var: np.ndarray, momentum: float, eps: float):
        self.gamma = gamma
        self.shift = shift
        self.running_mean = running_mean
        self.running_var = running_var
        self.momentum = momentum
        self.eps = eps

    def forward(self, x: np.ndarray):
        mean = x.mean(axis=0)
        xhat = x - mean
        y = np.square(xhat)     # as x.var(axis=0) squares; reused for the output
        var = y.sum(axis=0)
        var /= x.shape[0]
        for running, stat in ((self.running_mean, mean), (self.running_var, var)):
            running *= self.momentum
            running += (1 - self.momentum) * stat
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std
        np.multiply(xhat, self.gamma, out=y)
        y += self.shift
        return y, (xhat, inv_std)

    def backward(self, gy: np.ndarray, cache, ggamma: np.ndarray, gshift: np.ndarray):
        """Writes the scale and shift gradients into ``ggamma`` and
        ``gshift``; returns gx."""
        xhat, inv_std = cache
        tmp = gy * xhat
        tmp.sum(axis=0, out=ggamma)
        gy.sum(axis=0, out=gshift)
        # gx = (inv_std / n) * (n * gxhat - sum(gxhat) - xhat * sum(gxhat * xhat)),
        # with gxhat = gy * gamma turned into gx in place
        gx = gy * self.gamma
        n = gy.shape[0]
        gxhat_sum = gx.sum(axis=0)
        proj = np.multiply(gx, xhat, out=tmp).sum(axis=0)
        np.multiply(xhat, proj, out=tmp)
        gx *= n
        gx -= gxhat_sum
        gx -= tmp
        gx *= inv_std / n
        return gx


def relu_forward(x: np.ndarray):
    return np.maximum(x, 0.0), x > 0


def relu_backward(gy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masks ``gy`` in place and returns it."""
    gy *= mask
    return gy


def dropout_forward(x: np.ndarray, p: float, rng):
    """Inverted dropout, scaling ``x`` in place.  Identity when no rng is
    supplied: a deterministic forward."""
    if rng is None or p <= 0.0:
        return x, None
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)
    x *= keep
    x *= scale
    return x, (keep, scale)


def dropout_backward(gy: np.ndarray, cache) -> np.ndarray:
    """Scales ``gy`` in place and returns it."""
    if cache is None:
        return gy
    keep, scale = cache
    gy *= keep
    gy *= scale
    return gy
