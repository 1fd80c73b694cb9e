"""Adam with global-norm clipping and LR schedules."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError


# elements per chunk of an Adam update: 16 384 and 32 768 ran fastest on a
# full-width model, in about half the time of whole-array temporaries
ADAM_CHUNK = 16384
# Adam's moment decay rates and the guard on its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def clip_by_global_norm(grad: np.ndarray, spans, tau: float) -> float:
    """Scale the flat gradient ``grad`` in place by min(1, tau / ||g||_2)
    and return the L2 norm ||g||_2: squared in one pass, then one
    ``np.sum`` per slice of ``spans``, totalled as a Python float in their
    order, which rounds as summing each gradient array on its own does."""
    squares = np.square(grad)
    total = 0.0
    for span in spans:
        total += float(np.sum(squares[span]))
    norm = math.sqrt(total)
    if norm > 0 and tau / norm < 1.0:
        grad *= tau / norm
    return norm


class Adam:
    """Adam with decoupled weight decay applied to a prefix of the parameters.

    ``params`` is one C-contiguous float vector, updated in place; its
    first ``decayed`` elements (a model's dense weight matrices) take weight
    decay, so batch-norm scales, biases and skip scales are not pulled
    toward zero.  ``m`` and ``v`` are vectors of the same layout.  A step
    walks the decayed prefix and then the rest in chunks of ``ADAM_CHUNK``
    elements through the optimizer's two scratch arrays, with the
    operations, in order, of ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr*wd*p; p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``.
    """

    def __init__(self, params: np.ndarray, decayed: int, weight_decay: float):
        if params.ndim != 1 or not params.flags.c_contiguous:
            raise ConfigError("Adam updates its parameters in place, so they must be "
                              "one C-contiguous vector")
        self.params = params
        self.decayed = decayed
        self.weight_decay = weight_decay
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        size = min(ADAM_CHUNK, params.size)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, grad: np.ndarray, lr: float):
        if not np.all(np.isfinite(grad)):
            raise NumericError("non-finite gradient; optimizer step aborted")
        self.t += 1
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        lr_wd = lr * self.weight_decay
        vectors = (self.params, self.m, self.v, grad)
        for start, stop, decay in ((0, self.decayed, self.weight_decay > 0),
                                   (self.decayed, self.params.size, False)):
            for lo in range(start, stop, ADAM_CHUNK):
                hi = min(lo + ADAM_CHUNK, stop)
                pc, mc, vc, gc = (x[lo:hi] for x in vectors)
                a, b = (s[:hi - lo] for s in self._scratch)
                mc *= b1
                np.multiply(gc, 1 - b1, out=a)
                mc += a
                vc *= b2
                np.multiply(gc, 1 - b2, out=a)
                a *= gc
                vc += a
                if decay:
                    pc -= np.multiply(pc, lr_wd, out=a)
                np.divide(mc, bc1, out=a)
                a *= lr
                np.divide(vc, bc2, out=b)
                np.sqrt(b, out=b)
                b += eps
                a /= b
                pc -= a


LR_FLOOR = 1e-8

SCHEDULE_VARIANTS = ("step_decay", "warmup", "cosine", "plateau")


def learning_rate(config, step: int, epoch: int, total_steps: int) -> float:
    """The learning rate of the ``TrainConfig`` ``config`` at global
    ``step`` of zero-based ``epoch``, of ``total_steps`` in the run.

    The warm-up factor composes with the variant's decay (cosine or
    halving-by-epoch).  The ``plateau`` schedule runs at ``base_lr``.
    """
    if config.schedule == "plateau":
        return max(config.base_lr, LR_FLOOR)
    lr = config.base_lr   # as the warmup schedule leaves it, before the warm-up factor
    if config.schedule == "step_decay":
        lr *= 0.5 ** (epoch // config.decay_steps)
    elif config.schedule == "cosine":
        lr = lr * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0
    warmup = min(1.0, step / config.t_warmup) if config.t_warmup > 0 else 1.0
    return max(lr * warmup, LR_FLOOR)
