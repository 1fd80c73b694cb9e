import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dartclean.errors import ConfigError, NumericError, ShapeError
from dartclean.layers import (
    dropout_backward,
    dropout_forward,
    dropout_rate,
    relu_backward,
    relu_forward,
)
from dartclean.optim import (
    SCHEDULE_VARIANTS,
    Adam,
    clip_by_global_norm,
    global_norm,
    learning_rate,
)
from dartclean.trainer import TrainConfig
from tests.conftest import standalone_layers, tiny_model
from tests.oracles import oracle_lr_at


class TestDropoutRate:
    def test_layer_zero(self):
        assert dropout_rate(0) == pytest.approx(0.10)

    def test_layer_two(self):
        assert dropout_rate(2) == pytest.approx(0.20)

    def test_cap_at_layer_four(self):
        assert dropout_rate(4) == pytest.approx(0.30)
        assert dropout_rate(10) == pytest.approx(0.30)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            dropout_rate(-1)


class TestDense:
    def test_zero_weights_emit_bias(self, rng):
        layer = standalone_layers(4, 3, rng)[0]
        layer.W[:] = 0.0
        layer.b[:] = [1.0, 2.0, 3.0]
        y, _ = layer.forward(rng.normal(size=(5, 4)))
        assert np.array_equal(y, np.tile([1.0, 2.0, 3.0], (5, 1)))

    def test_scalar_affine(self, rng):
        layer = standalone_layers(1, 1, rng)[0]
        layer.W[:] = 2.0
        layer.b[:] = 1.0
        y, _ = layer.forward(np.array([[3.0]]))
        assert y[0, 0] == 7.0

    def test_matches_naive_matmul(self, rng):
        layer = standalone_layers(4, 5, rng)[0]
        x = rng.normal(size=(7, 4))
        y, _ = layer.forward(x)
        for r in range(7):
            for o in range(5):
                expect = layer.b[o] + sum(layer.W[o, i] * x[r, i] for i in range(4))
                assert abs(y[r, o] - expect) <= 1e-12

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            standalone_layers(4, 5, rng)[0].forward(rng.normal(size=(2, 3)))

    def test_hand_derivative(self, rng):
        # w=1, b=0, x=2, target=0, L=(wx-t)^2: dL/dw = 2(wx-t)x = 8
        layer = standalone_layers(1, 1, rng)[0]
        layer.W[:] = 1.0
        layer.b[:] = 0.0
        x = np.array([[2.0]])
        y, cache = layer.forward(x)
        gy = 2.0 * (y - 0.0)
        gW, gb = np.empty((1, 1)), np.empty(1)
        layer.backward(gy, cache, gW, gb)
        assert gW[0, 0] == 8.0

    def test_zero_output_gradient_zeroes_params(self, rng):
        layer = standalone_layers(3, 4, rng)[0]
        _, cache = layer.forward(rng.normal(size=(6, 3)))
        gW, gb = np.ones((4, 3)), np.ones(4)
        gx = layer.backward(np.zeros((6, 4)), cache, gW, gb)
        assert not gx.any()
        assert not gW.any()
        assert not gb.any()


class TestBatchNorm:
    def test_train_mode_standardizes(self, rng):
        bn = standalone_layers(4, 4)[1]
        x = rng.normal(3.0, 2.0, size=(256, 4))
        y, _ = bn.forward(x)
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(y.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_update(self, rng):
        bn = standalone_layers(2, 2, momentum=0.9)[1]
        x = rng.normal(size=(64, 2))
        bn.forward(x)
        assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=0))
        assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0))

    def test_infer_mode_does_not_touch_running_stats(self, rng):
        # the frozen batch norm runs only inside Vae.infer
        model = tiny_model(hidden=(5, 3))
        before = model.clone_state()
        model.infer(rng.normal(size=(8, 6)))
        for name, arr in model.state.items():
            assert np.array_equal(arr, before[name]), name

    def test_backward_matches_finite_differences(self, rng):
        bn = standalone_layers(3, 3)[1]
        bn.gamma[...] = rng.normal(1.0, 0.2, 3)
        bn.shift[...] = rng.normal(0.0, 0.2, 3)
        x = rng.normal(size=(7, 3))
        target = rng.normal(size=(7, 3))

        def loss(xv):
            y, _ = bn.forward(xv)
            return float(np.sum((y - target) ** 2))

        y, cache = bn.forward(x)
        gx = bn.backward(2.0 * (y - target), cache, np.empty(3), np.empty(3))
        h = 1e-6
        for r in range(7):
            for c in range(3):
                xp = x.copy(); xp[r, c] += h
                xm = x.copy(); xm[r, c] -= h
                fd = (loss(xp) - loss(xm)) / (2 * h)
                assert abs(gx[r, c] - fd) <= 1e-4 * max(1.0, abs(fd))


class TestReluDropout:
    def test_relu_forward_backward(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        y, mask = relu_forward(x)
        assert np.array_equal(y, [[0.0, 0.0, 2.0]])
        gx = relu_backward(np.ones_like(x), mask)
        assert np.array_equal(gx, [[0.0, 0.0, 1.0]])

    def test_dropout_identity_when_inferring(self, rng):
        # no rng: the deterministic forward, which draws no mask
        x = rng.normal(size=(4, 4))
        y, cache = dropout_forward(x, 0.3, rng=None)
        assert y is x and cache is None
        assert dropout_backward(x, None) is x

    def test_dropout_inverted_scaling(self, rng):
        x = np.ones((2000, 10))
        y, _ = dropout_forward(x, 0.3, rng=rng)
        kept = y != 0.0
        assert np.allclose(y[kept], 1.0 / 0.7)
        assert abs(kept.mean() - 0.7) < 0.03

    def test_dropout_backward_uses_same_mask(self, rng):
        x = rng.normal(size=(8, 8))
        y, cache = dropout_forward(x, 0.2, rng=rng)
        gy = np.ones_like(x)
        gx = dropout_backward(gy, cache)
        assert np.array_equal(gx == 0.0, y == 0.0)


class TestClipping:
    def test_norm_two_scales_by_half(self):
        grad = np.array([2.0, 0.0, 0.0, 0.0])
        norm = clip_by_global_norm(grad, [slice(0, 2), slice(2, 4)], 1.0)
        assert norm == 2.0
        assert np.array_equal(grad, [1.0, 0.0, 0.0, 0.0])

    def test_small_gradients_untouched(self, rng):
        grad = rng.normal(size=3) * 1e-3
        before = grad.copy()
        clip_by_global_norm(grad, [slice(0, 3)], 1.0)
        assert np.array_equal(grad, before)

    def test_clipped_norm_never_exceeds_tau(self, rng):
        for _ in range(20):
            grad = rng.normal(size=10) * rng.uniform(0.1, 100)
            clip_by_global_norm(grad, [slice(0, 4), slice(4, 10)], 1.0)
            assert global_norm(grad, [slice(0, 10)]) <= 1.0 + 1e-12


class TestAdam:
    def test_zero_grad_no_decay_leaves_params(self):
        w = np.array([1.0, -2.0])
        opt = Adam(w, 2, weight_decay=0.0)
        opt.step(np.zeros(2), lr=0.1)
        assert np.array_equal(w, [1.0, -2.0])

    def test_scalar_quadratic_converges(self):
        w = np.array([0.0])
        opt = Adam(w, 1, weight_decay=0.0)
        for _ in range(100):
            opt.step(2.0 * (w - 3.0), lr=0.1)
        assert abs(w[0] - 3.0) < 0.1

    def test_non_finite_gradient_aborts(self):
        w = np.array([1.0])
        opt = Adam(w, 1)
        with pytest.raises(NumericError):
            opt.step(np.array([np.nan]), lr=0.1)
        assert w[0] == 1.0

    def test_decay_applies_only_to_dense_weights(self):
        # a model's dense weights are the decayed prefix of its flat vector
        params = np.array([1.0, 1.0])
        opt = Adam(params, 1, weight_decay=0.5)
        opt.step(np.zeros(2), lr=0.1)
        assert params[0] == pytest.approx(1.0 - 0.1 * 0.5)
        assert params[1] == 1.0


class TestLrSchedule:
    def test_step_decay_epoch_150(self):
        config = TrainConfig(schedule="step_decay", base_lr=1e-4, decay_steps=100, t_warmup=0)
        assert learning_rate(config, 0, 150, 1) == pytest.approx(5e-5)

    def test_warmup_halfway(self):
        config = TrainConfig(schedule="warmup", base_lr=1e-4, t_warmup=1000)
        assert learning_rate(config, 500, 0, 1) == pytest.approx(5e-5)

    def test_cosine_end_floored(self):
        config = TrainConfig(schedule="cosine", base_lr=1e-4, t_warmup=0)
        assert learning_rate(config, 200, 0, 200) == pytest.approx(1e-8)
        assert learning_rate(config, 0, 0, 200) == pytest.approx(1e-4)
        assert learning_rate(config, 100, 0, 200) == pytest.approx(5e-5)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="train.schedule"):
            TrainConfig(schedule="polynomial")

    def test_emitted_lr_always_positive(self):
        config = TrainConfig(schedule="cosine", base_lr=1e-4, t_warmup=1000)
        for t in range(11):
            assert learning_rate(config, t, 0, 10) > 0.0

    def test_composition_warmup_then_decay_then_plateau(self):
        config = TrainConfig(schedule="step_decay", base_lr=1e-4, decay_steps=100,
                             t_warmup=1000)
        lr = learning_rate(config, 500, 150, 1)
        assert lr == pytest.approx(1e-4 * 0.5 * 0.5 ** 1)

    @pytest.mark.parametrize("variant, expected", [
        ("step_decay", 1e-4 * 0.5),                                          # decay x warm-up
        ("cosine", 1e-4 * (1.0 + math.cos(math.pi * 25 / 200)) / 2.0 * 0.5),  # decay x warm-up
        ("warmup", 1e-4 * 0.5),                                              # warm-up alone
        ("plateau", 1e-4),                                                   # no warm-up
    ])
    def test_warmup_halfway_per_variant(self, variant, expected):
        config = TrainConfig(schedule=variant, base_lr=1e-4, t_warmup=50)
        assert learning_rate(config, 25, 0, 200) == pytest.approx(expected, rel=1e-12)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(variant=st.sampled_from(SCHEDULE_VARIANTS),
           base_lr=st.sampled_from([1e-4, 1e-3, 3e-4]) | st.floats(1e-9, 1.0),
           decay_steps=st.integers(1, 300), t_warmup=st.integers(0, 2000),
           total_steps=st.integers(1, 5000), step=st.integers(0, 6000),
           epoch=st.integers(0, 1000))
    def test_matches_the_schedule_it_replaced(self, variant, base_lr, decay_steps, t_warmup,
                                              total_steps, step, epoch):
        # exact: the same operations in the same order round the same way
        config = TrainConfig(schedule=variant, base_lr=base_lr, decay_steps=decay_steps,
                             t_warmup=t_warmup)
        assert learning_rate(config, step, epoch, total_steps) == oracle_lr_at(
            variant, base_lr, decay_steps, t_warmup, total_steps, step, epoch)
