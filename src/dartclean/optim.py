"""Adam with global-norm clipping, gradient accumulation, and LR schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError


# elements per chunk of an Adam update: 16 384 and 32 768 ran fastest on a
# full-width model, in about half the time of whole-array temporaries
ADAM_CHUNK = 16384


def global_norm(grads: dict) -> float:
    """L2 norm over every gradient: each is squared into one scratch array
    per call, then one ``np.sum`` per array, totalled as a Python float in
    dict order."""
    scratch = np.empty(max((np.size(g) for g in grads.values()), default=0))
    total = 0.0
    for g in grads.values():
        sq = np.square(g, out=scratch[:np.size(g)].reshape(np.shape(g)))
        total += float(np.sum(sq))
    return math.sqrt(total)


def clip_by_global_norm(grads: dict, tau: float):
    """Scale every gradient in place by min(1, tau / ||g||_2); returns
    (grads, norm).  Every value must be an ndarray, which is checked before
    any is touched."""
    for name, g in grads.items():
        if not isinstance(g, np.ndarray):
            raise ConfigError(f"clipping scales {name!r} in place, so it must be an ndarray")
    norm = global_norm(grads)
    scale = min(1.0, tau / norm) if norm > 0 else 1.0
    if scale < 1.0:
        for g in grads.values():
            g *= scale
    return grads, norm


def accumulate_gradients(grad_list):
    """Elementwise mean over a list of gradient dicts with identical keys."""
    if not grad_list:
        raise ConfigError("cannot accumulate an empty gradient list")
    out = {}
    for key in grad_list[0]:
        out[key] = sum(np.asarray(g[key]) for g in grad_list) / len(grad_list)
    return out


class Adam:
    """Adam with decoupled weight decay applied to dense weight matrices.

    ``params`` is a dict of live, C-contiguous float arrays updated in
    place.  Decay is applied only to names in ``decay_names`` so batch-norm
    scales and biases are not pulled toward zero.  A step walks each array
    in chunks of ``ADAM_CHUNK`` elements through the optimizer's two
    scratch arrays, with the operations, in order, of
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr*wd*p; p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``.
    """

    def __init__(self, params: dict, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=1e-5, decay_names=None):
        for name, p in params.items():
            if not p.flags.c_contiguous:
                raise ConfigError(f"Adam updates {name!r} in place, so it must be C-contiguous")
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.decay_names = set(decay_names) if decay_names is not None else {
            name for name in params if name.endswith(".W")
        }
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        size = min(ADAM_CHUNK, max((p.size for p in params.values()), default=0))
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, grads: dict, lr: float):
        for g in grads.values():
            if not np.all(np.isfinite(g)):
                raise NumericError("non-finite gradient; optimizer step aborted")
        self.t += 1
        b1, b2, eps = self.beta1, self.beta2, self.eps
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        lr_wd = lr * self.weight_decay
        for name, p in self.params.items():
            decay = name in self.decay_names and self.weight_decay > 0
            flat = [a.reshape(-1) for a in (p, self.m[name], self.v[name],
                                            np.asarray(grads[name]))]
            for lo in range(0, p.size, ADAM_CHUNK):
                pc, mc, vc, gc = (a[lo:lo + ADAM_CHUNK] for a in flat)
                a, b = (s[:pc.size] for s in self._scratch)
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


@dataclass
class LrSchedule:
    """Learning-rate schedule.

    Composition order when several mechanisms are active: warm-up factor,
    then the variant's decay (cosine or halving-by-epoch), then the plateau
    multiplier maintained by a :class:`PlateauTracker`.
    """

    variant: str = "step_decay"
    base_lr: float = 1e-4
    decay_steps: int = 100
    t_warmup: int = 0
    total_steps: int = 0

    def __post_init__(self):
        if self.variant not in SCHEDULE_VARIANTS:
            raise ConfigError(f"unknown schedule variant {self.variant!r}")
        if self.variant == "cosine" and self.total_steps <= 0:
            raise ConfigError("cosine schedule requires total_steps > 0")

    def warmup_factor(self, step: int) -> float:
        if self.t_warmup <= 0:
            return 1.0
        return min(1.0, step / self.t_warmup)

    def lr_at(self, step: int, epoch: int = 0, plateau_mult: float = 1.0) -> float:
        if step < 0:
            raise ConfigError("step must be >= 0")
        if self.variant == "warmup":
            lr = self.base_lr * self.warmup_factor(step)
        elif self.variant == "step_decay":
            lr = self.base_lr * 0.5 ** (epoch // self.decay_steps)
            lr *= self.warmup_factor(step)
        elif self.variant == "cosine":
            lr = self.base_lr * (1.0 + math.cos(math.pi * step / self.total_steps)) / 2.0
            lr *= self.warmup_factor(step)
        else:  # plateau: base rate scaled only by the tracker's multiplier
            lr = self.base_lr
        lr *= plateau_mult
        return max(lr, LR_FLOOR)


@dataclass
class PlateauTracker:
    """Halves its multiplier when the monitored loss stops improving."""

    patience: int = 10
    min_delta: float = 1e-4
    factor: float = 0.5
    best: float = field(default=math.inf, init=False)
    wait: int = field(default=0, init=False)
    multiplier: float = field(default=1.0, init=False)

    def observe(self, monitored: float) -> float:
        if monitored < self.best - self.min_delta:
            self.best = monitored
            self.wait = 0
        else:
            self.wait += 1
            if self.wait > self.patience:
                self.multiplier *= self.factor
                self.wait = 0
        return self.multiplier
