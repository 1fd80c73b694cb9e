from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from dartclean import trainer
from dartclean.errors import DataError
from dartclean.preprocess import zscore_normalize
from dartclean.series_io import FLAG_VALID, RawSeries
from dartclean.trainer import (
    EpochRecord,
    TrainConfig,
    TrainLog,
    early_stop_check,
    train,
)
from tests.conftest import tiny_model


def _sine_windows(n=600, w=6):
    t = np.arange(n)
    x = np.sin(2 * np.pi * t / 50.0)
    raw = RawSeries(timestamps=900.0 * t, values=x, flags=np.full(n, FLAG_VALID))
    return sliding_window_view(zscore_normalize(raw).values, w)


def _record(epoch, total=1.0, val=1.0):
    return EpochRecord(epoch=epoch, recon=total, kl=0.0, temporal=0.0, mean=0.0,
                       total=total, val_total=val, lr=1e-4, grad_norm=0.5)


class TestEarlyStopCheck:
    def _cfg(self, patience=10):
        return TrainConfig(epochs=50, patience=patience)

    def test_strict_improvement_never_stops(self):
        cfg = self._cfg()
        history = []
        for epoch in range(1, 200):
            history.append(10.0 - 1e-3 * epoch)
            stop, reason = early_stop_check(history, [1.0] * len(history), 0.5, cfg)
            assert not stop, (epoch, reason)

    def test_flat_loss_triggers_patience(self):
        cfg = self._cfg()
        history = [1.0] * 11
        stop, reason = early_stop_check(history, [1.0] * 11, 0.5, cfg)
        assert stop and reason == "patience"

    def test_secondary_kl_stabilization(self):
        cfg = self._cfg()
        # keep the primary criterion quiet with steady improvement
        history = [10.0 - 0.1 * i for i in range(12)]
        kl = [1.0] * 11 + [1.0 + 5e-6]
        stop, reason = early_stop_check(history, kl, 0.05, cfg)
        assert stop and reason == "kl_stabilized"

    def test_secondary_needs_both_conditions(self):
        cfg = self._cfg()
        history = [10.0 - 0.1 * i for i in range(12)]
        kl = [1.0] * 11 + [1.0 + 5e-6]
        stop, _ = early_stop_check(history, kl, 0.5, cfg)  # grad norm too large
        assert not stop

    def test_epoch_cap(self):
        cfg = TrainConfig(epochs=1000, patience=10, max_epochs=1000)
        history = [10.0 - 1e-3 * i for i in range(1000)]
        stop, reason = early_stop_check(history, [1.0] * 1000, 0.5, cfg)
        assert stop and reason == "max_epochs"

    def test_never_fires_before_patience(self):
        cfg = self._cfg(patience=10)
        history = [1.0] * 10  # flat, but the window is not yet full
        stop, _ = early_stop_check(history, [1.0] * 10, 0.0, cfg)
        assert not stop

    def test_empty_history_rejected(self):
        with pytest.raises(DataError):
            early_stop_check([], [], 0.0, self._cfg())


def test_plateau_schedule_trains_at_base_lr_through_an_exact_tie(monkeypatch):
    # epoch 4's 0.0 equals epoch 2's 0.5 minus min_delta exactly: a rate
    # halving that shared patience and min_delta with the early stop would
    # fire on this tie, one epoch before the patience stop
    totals = iter([4.0, 0.5, 0.5, 0.0, 0.0, 0.0])
    monkeypatch.setattr(trainer, "_validation_loss", lambda *_: SimpleNamespace(
        total=next(totals), recon=0.0))
    cfg = TrainConfig(epochs=10, seed=0, base_lr=1e-3, schedule="plateau", patience=2,
                      min_delta=0.5, kl_stall_delta=0.0)
    log, reason = train(tiny_model(), _sine_windows(), cfg)
    assert reason == "patience"
    assert [r.lr for r in log.records] == [cfg.base_lr] * 6


class TestTrain:
    def test_single_epoch_single_record(self):
        model = tiny_model()
        log, reason = train(model, _sine_windows(), TrainConfig(epochs=1, seed=0))
        assert len(log.records) == 1
        assert log.records[0].epoch == 1

    def test_same_seed_reproduces_log(self):
        cfg = TrainConfig(epochs=3, seed=5)
        log_a, _ = train(tiny_model(seed=2), _sine_windows(), cfg)
        log_b, _ = train(tiny_model(seed=2), _sine_windows(), cfg)
        assert log_a.to_csv() == log_b.to_csv()

    def test_loss_reduction_on_clean_sinusoid(self):
        model = tiny_model(window=6, hidden=(16, 8), latent=4, seed=0)
        cfg = TrainConfig(epochs=50, seed=0, base_lr=1e-3, t_warmup=100,
                          patience=50)
        log, _ = train(model, _sine_windows(2000), cfg)
        first = log.records[0].recon
        final = log.records[-1].recon
        assert final < 0.6 * first, (first, final)

    def test_best_validation_state_restored(self):
        model = tiny_model(seed=1)
        windows = _sine_windows()
        cfg = TrainConfig(epochs=8, seed=3)
        log, _ = train(model, windows, cfg)
        n_val = max(1, int(round(cfg.val_fraction * len(windows))))
        X_val = windows[-n_val:]
        best = min(log.records, key=lambda r: r.val_total)
        # the restored state reproduces the best epoch's validation recon
        # bit-for-bit (infer mode is deterministic)
        _, xhat = model.infer(X_val)
        assert float(np.mean((xhat - X_val) ** 2)) == best.val_recon

    def test_grad_norm_capped_by_tau(self):
        model = tiny_model(seed=1)
        log, _ = train(model, _sine_windows(), TrainConfig(epochs=3, seed=0,
                                                           clip_tau=1.0))
        for r in log.records:
            assert r.grad_norm <= 1.0 + 1e-12

    def test_empty_windows_rejected(self):
        with pytest.raises(DataError):
            train(tiny_model(), np.zeros((0, 6)), TrainConfig(epochs=1))

    def test_train_mode_loss_matches_infer_with_stochasticity_off(self, rng):
        # momentum 0 makes the running stats equal the batch stats, so the
        # train-mode and infer-mode forward passes agree when dropout is off
        # and eps = 0
        model = tiny_model(bn_momentum=0.0)
        X = rng.normal(size=(32, 6))
        lb_train, _, _ = model.loss_and_grads(X, step=100, eps=np.zeros((32, 4)))
        lb_infer = trainer._validation_loss(model, X, 100, TrainConfig())
        assert lb_infer.total == pytest.approx(lb_train.total, rel=1e-6)


class TestTrainLogCsv:
    def test_header_and_row_count(self):
        log = TrainLog(records=[_record(1), _record(2)])
        lines = log.to_csv().splitlines()
        assert lines[0] == trainer.LOG_HEADER
        assert len(lines) == 3

    def test_round_trip_values(self):
        log = TrainLog(records=[_record(1, total=0.123456789, val=0.2)])
        row = log.to_csv().splitlines()[1].split(",")
        assert row[0] == "1"
        assert float(row[5]) == pytest.approx(0.123456789)


def test_state_taken_before_training_holds_the_trained_buffers():
    # training writes the batch-norm running statistics and beta into the
    # model's own arrays and never rebinds them
    model = tiny_model(seed=3)
    fresh = model.clone_state()
    before = dict(model.state)
    train(model, _sine_windows(), TrainConfig(epochs=2, batch_size=32))
    after = model.state
    assert all(before[name] is after[name] for name in after)
    for name in ("enc0.running_mean", "enc0.running_var", "dec0.running_mean",
                 "dec0.running_var", "beta"):
        assert not np.array_equal(after[name], fresh[name]), name
