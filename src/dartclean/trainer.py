"""Seeded mini-batch training loop with early stopping and metric logging."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .model import LatentState
from .optim import SCHEDULE_VARIANTS, Adam, clip_by_global_norm, learning_rate
from .series_io import check_rules

LOG_HEADER = "epoch,recon,kl,temporal,mean,total,val_total,lr,grad_norm"


@dataclass
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 128
    base_lr: float = 1e-4
    decay_steps: int = 100
    schedule: str = "step_decay"
    patience: int = 10
    min_delta: float = 1e-4
    t_anneal: int = 5000
    t_warmup: int = 1000
    clip_tau: float = 1.0
    weight_decay: float = 1e-5
    lam_temporal: float = 0.1
    lam_mean: float = 0.1
    seed: int = 0
    val_fraction: float = 0.1
    accumulation_steps: int = 1
    kl_stall_delta: float = 1e-5
    grad_norm_floor: float = 0.1
    max_epochs: int = 1000

    def __post_init__(self):
        check_rules(self, "train", [
            (("epochs", "batch_size", "accumulation_steps", "patience", "decay_steps",
              "max_epochs"), lambda v: v >= 1, "an integer >= 1"),
            (("t_anneal", "t_warmup", "seed"), lambda v: v >= 0, "an integer >= 0"),
            (("val_fraction",), lambda v: 0.0 < v < 0.5, "a number in (0, 0.5)"),
            (("base_lr",), lambda v: 0.0 < v < math.inf, "a finite number > 0"),
            (("clip_tau",), lambda v: v > 0.0, "a number > 0 (Infinity for no clipping)"),
            (("weight_decay", "lam_temporal", "lam_mean"), lambda v: 0.0 <= v < math.inf,
             "a finite number >= 0"),
            (("schedule",), lambda v: v in SCHEDULE_VARIANTS,
             f"one of {', '.join(SCHEDULE_VARIANTS)}"),
        ])


@dataclass
class EpochRecord:
    epoch: int
    recon: float
    kl: float
    temporal: float
    mean: float
    total: float
    val_total: float
    lr: float
    grad_norm: float
    val_recon: float = math.nan  # tracked for diagnostics, not part of the CSV


@dataclass
class TrainLog:
    records: list = field(default_factory=list)

    def to_csv(self) -> str:
        return LOG_HEADER + "\n" + "".join(
            f"{r.epoch},{r.recon:.10g},{r.kl:.10g},{r.temporal:.10g},"
            f"{r.mean:.10g},{r.total:.10g},{r.val_total:.10g},"
            f"{r.lr:.10g},{r.grad_norm:.10g}\n" for r in self.records)


class DivergenceError(NumericError):
    """Training diverged; carries the log accumulated so far."""

    def __init__(self, message, log: TrainLog):
        super().__init__(message)
        self.log = log


def early_stop_check(val_history, kl_history, grad_norm, config: TrainConfig):
    """Decide whether training should stop after the latest epoch.

    Returns (stop: bool, reason: str | None).  Reasons: "patience" when the
    validation loss has not beaten its best by min_delta for a full patience
    window, "kl_stabilized" when the KL change and gradient norm both sit
    below their stall thresholds, "max_epochs" at the epoch cap.  No
    criterion may fire before ``patience`` epochs have been recorded, except
    the hard epoch cap.
    """
    if not val_history:
        raise DataError("early stopping needs at least one recorded epoch")
    epoch = len(val_history)
    if epoch >= config.max_epochs:
        return True, "max_epochs"
    if epoch <= config.patience:
        return False, None
    best_before_window = min(val_history[:-config.patience])
    recent = val_history[-config.patience:]
    if min(recent) > best_before_window - config.min_delta:
        return True, "patience"
    if len(kl_history) >= 2:
        kl_delta = abs(kl_history[-1] - kl_history[-2])
        if kl_delta < config.kl_stall_delta and grad_norm < config.grad_norm_floor:
            return True, "kl_stabilized"
    return False, None


def train(model, X, config: TrainConfig):
    """Train a Vae on the [n x window] windows ``X``, which may be a
    sliding window view of the series; returns (TrainLog, stop reason).

    The model is left holding the parameters with the best validation loss
    seen during the run.  The validation split is the chronologically last
    fraction of windows, so the same seed always yields the same split,
    batches, and numeric trajectory.
    """
    if X.size == 0:
        raise DataError("no training windows supplied")
    n_windows = X.shape[0]
    n_val = max(1, int(round(config.val_fraction * n_windows)))
    if n_val >= n_windows:
        raise DataError("too few windows for the requested validation fraction")
    # batches are copies; so is X_val: the mean penalty's X.mean() sums a
    # window view in another order than its copy
    X_train, X_val = X[:-n_val], X[-n_val:].copy()
    batches = math.ceil(len(X_train) / config.batch_size)
    if config.accumulation_steps > batches:
        raise ConfigError(f"train.accumulation_steps must be at most the {batches} batches "
                          f"of one epoch, got {config.accumulation_steps}")

    rng = np.random.default_rng(config.seed)
    total_steps = config.epochs * batches
    optimizer = Adam(model.params, model.decayed, weight_decay=config.weight_decay)

    log = TrainLog()
    val_history, kl_history = [], []
    best_val, best_state = math.inf, model.clone_state()
    global_step = bad_batches = 0
    reason = "epochs_exhausted"
    # the running sum of the gradients since the last step, when accumulating
    pending = np.zeros_like(model.grad) if config.accumulation_steps > 1 else None
    n_pending = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(X_train))
        sums = np.zeros(5)
        norms = []
        n_batches = 0
        for start in range(0, len(X_train), config.batch_size):
            batch = X_train[order[start:start + config.batch_size]]
            lr = learning_rate(config, global_step, epoch - 1, total_steps)
            lb, _, grads = model.loss_and_grads(
                batch, step=global_step, rng=rng,
                t_anneal=config.t_anneal, lam_temporal=config.lam_temporal,
                lam_mean=config.lam_mean,
            )
            if not math.isfinite(lb.total):
                bad_batches += 1
                if bad_batches >= 3:
                    raise DivergenceError(
                        f"non-finite loss for {bad_batches} consecutive batches", log
                    )
                global_step += 1
                continue
            bad_batches = 0
            grads.pop("beta", None)  # beta follows the confidence rule, not Adam
            norm = clip_by_global_norm(model.grad, [model.spans[name] for name in grads],
                                       config.clip_tau)
            norms.append(min(norm, config.clip_tau))
            if pending is None:
                # the mean of one gradient is 0.0 + g, which only turns -0.0
                # into +0.0; Adam's m is never -0.0, so m + (±0.0) == m, and
                # g*g is +0.0 either way (tests/test_train_step.py)
                optimizer.step(model.grad, lr)
            else:
                # summed in step order from +0.0, then divided in place, as
                # the mean sum(grads) / k rounds
                pending += model.grad
                n_pending += 1
                if n_pending == config.accumulation_steps:
                    pending /= n_pending
                    optimizer.step(pending, lr)
                    pending.fill(0.0)
                    n_pending = 0
            model.update_global_skip(lb.recon)
            sums += (lb.recon, lb.kl, lb.temporal, lb.mean, lb.total)
            n_batches += 1
            global_step += 1
        if n_batches == 0:
            raise DivergenceError("no finite batches in epoch", log)

        val = _validation_loss(model, X_val, global_step, config)
        val_history.append(val.total)
        means = sums / n_batches   # recon, kl, temporal, mean, total
        kl_history.append(means[1])
        grad_norm = float(np.mean(norms)) if norms else 0.0
        log.records.append(EpochRecord(
            epoch, *means, val_total=val.total, grad_norm=grad_norm, val_recon=val.recon,
            lr=learning_rate(config, global_step, epoch - 1, total_steps)))
        if val.total < best_val:
            best_val = val.total
            best_state = model.clone_state()
        stop, why = early_stop_check(val_history, kl_history, grad_norm, config)
        if stop:
            reason = why
            break
    model.load_state(best_state)
    return log, reason


def _validation_loss(model, X_val, step, config: TrainConfig):
    """Infer-mode LossBreakdown on the validation windows, through the
    row-blocked :meth:`Vae.infer`.  Its z is mu + 0.0, which differs from
    mu only in the sign of a zero, and the KL term reads mu squared."""
    logvar = np.empty((len(X_val), model.config.latent))
    z, xhat = model.infer(X_val, logvar_out=logvar)
    latent = LatentState(mu=z, logvar=logvar, z=z, eps=np.zeros_like(z))
    return model.composite_loss(X_val, xhat, latent, step, config.t_anneal,
                                config.lam_temporal, config.lam_mean)

