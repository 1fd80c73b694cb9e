import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dartclean.errors import ConfigError, DataError
from dartclean.postprocess import (
    SmoothConfig,
    gaussian_kernel,
    gaussian_smooth,
    realign_steps,
    validate_steps,
)

from tests.oracles import oracle_validate_steps

# the step windows and threshold of ``DetectConfig()``, as these tests were written for
W_L, TAU_L, W_S = 480, 0.05, 48


class TestKernel:
    def test_normalized(self):
        kernel = gaussian_kernel(6, 1.5)
        assert kernel.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(kernel > 0)

    def test_peak_at_center(self):
        kernel = gaussian_kernel(6, 1.5)
        assert kernel.argmax() == 3  # offset 0 for a 6-tap window


class TestGaussianSmooth:
    def test_constant_passes_through_exactly(self):
        x = np.full(50, 3.25)
        out = gaussian_smooth(x)
        assert np.allclose(out, 3.25, atol=1e-12)

    def test_impulse_reproduces_kernel(self):
        n = 41
        x = np.zeros(n)
        x[20] = 1.0
        out = gaussian_smooth(x)
        kernel = gaussian_kernel(6, 1.5)
        offsets = np.arange(6) - 3
        # out[i] integrates kernel taps that reach the impulse
        for i in range(5, n - 5):
            hit = np.flatnonzero(i + offsets == 20)
            expect = kernel[hit].sum() if hit.size else 0.0
            assert out[i] == pytest.approx(expect, abs=1e-12)

    def test_matches_naive_convolution(self, rng):
        x = rng.normal(size=300)
        out = gaussian_smooth(x)
        kernel = gaussian_kernel(6, 1.5)
        offsets = np.arange(6) - 3
        for i in range(300):
            num = 0.0
            den = 0.0
            for k, off in zip(kernel, offsets):
                j = i + off
                if 0 <= j < 300:
                    num += k * x[j]
                    den += k
            assert abs(out[i] - num / den) <= 1e-12

    def test_linearity(self, rng):
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        a, b = 1.7, -0.4
        lhs = gaussian_smooth(a * x + b * y)
        rhs = a * gaussian_smooth(x) + b * gaussian_smooth(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_never_amplifies(self, rng):
        x = rng.normal(size=500)
        assert np.max(np.abs(gaussian_smooth(x))) <= np.max(np.abs(x))

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            gaussian_smooth(np.zeros(3))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SmoothConfig(window=1)
        with pytest.raises(ConfigError):
            SmoothConfig(sigma=0.0)


class TestValidateSteps:
    def _step_series(self, n=2000, loc=1000, mag=0.5, noise=0.0, seed=0):
        x = np.zeros(n)
        x[loc:] += mag
        if noise:
            x += np.random.default_rng(seed).normal(0.0, noise, n)
        return x

    def test_persistent_step_retained(self):
        x = self._step_series()
        mask = np.zeros(2000, dtype=bool)
        mask[1000] = True
        validated, warned = validate_steps(x, mask, np.zeros(2000, dtype=bool), W_L, TAU_L, W_S)
        assert validated[1000]
        assert not warned

    def test_sub_threshold_step_dropped(self):
        x = self._step_series(mag=0.01)
        mask = np.zeros(2000, dtype=bool)
        mask[1000] = True
        validated, _ = validate_steps(x, mask, np.zeros(2000, dtype=bool), W_L, TAU_L, W_S)
        assert not validated.any()

    def test_spike_overlap_drops_step(self):
        x = self._step_series()
        mask = np.zeros(2000, dtype=bool)
        mask[1000] = True
        spikes = np.zeros(2000, dtype=bool)
        spikes[1010] = True  # within w_s of the step
        validated, _ = validate_steps(x, mask, spikes, W_L, TAU_L, W_S)
        assert not validated.any()

    def test_edge_step_retained_with_warning(self):
        x = self._step_series(n=600, loc=100)
        mask = np.zeros(600, dtype=bool)
        mask[100] = True  # half-window of 240 does not fit on the left
        validated, warned = validate_steps(x, mask, np.zeros(600, dtype=bool), W_L, TAU_L, W_S)
        assert validated[100]
        assert warned == [100]

    def test_never_adds_steps(self, rng):
        x = rng.normal(size=2000)
        mask = rng.random(2000) < 0.01
        validated, _ = validate_steps(x, mask, np.zeros(2000, dtype=bool), W_L, TAU_L, W_S)
        assert not validated[~mask].any()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 160), w_l=st.integers(3, 90),
       w_s=st.integers(3, 40), tau_l=st.floats(0.0, 1.0),
       step_p=st.sampled_from([0.0, 0.05, 0.3, 1.0]), spike_p=st.sampled_from([0.0, 0.02, 0.2]),
       with_nan=st.booleans())
@example(seed=1, n=8, w_l=9, w_s=3, tau_l=0.1, step_p=1.0, spike_p=0.0, with_nan=False)
@example(seed=2, n=30, w_l=50, w_s=4, tau_l=0.1, step_p=0.3, spike_p=0.2, with_nan=False)
@example(seed=3, n=20, w_l=6, w_s=15, tau_l=0.1, step_p=1.0, spike_p=0.2, with_nan=False)
def test_validate_steps_matches_per_candidate_loop(seed, n, w_l, w_s, tau_l, step_p, spike_p,
                                                   with_nan):
    # the examples: odd w_l with n = w_l - 1 (one interior index), a series
    # shorter than w_l (every step at an edge) and one shorter than 2 w_s + 1
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + np.where(np.arange(n) >= rng.integers(0, n + 1), 0.5, 0.0)
    if with_nan:
        x[rng.integers(0, n)] = np.nan
    steps = rng.random(n) < step_p
    spikes = rng.random(n) < spike_p
    got = validate_steps(x, steps, spikes, w_l=w_l, tau_l=tau_l, w_s=w_s)
    want = oracle_validate_steps(x, steps, spikes, w_l=w_l, tau_l=tau_l, w_s=w_s)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]


class TestRealignSteps:
    def test_single_step_removed(self):
        x = np.zeros(2000)
        x[1200:] += 0.8
        mask = np.zeros(2000, dtype=bool)
        mask[1200] = True
        out = realign_steps(x, mask, W_L)
        assert np.max(np.abs(out)) <= 1e-12

    def test_consecutive_steps_compose(self):
        x = np.zeros(4000)
        x[1000:] += 0.5
        x[2500:] -= 0.3
        mask = np.zeros(4000, dtype=bool)
        mask[1000] = mask[2500] = True
        out = realign_steps(x, mask, W_L)
        assert np.max(np.abs(out)) <= 1e-12

    def test_no_steps_is_identity(self, rng):
        x = rng.normal(size=1000)
        out = realign_steps(x, np.zeros(1000, dtype=bool), W_L)
        assert np.array_equal(out, x)

    def test_input_not_mutated(self):
        x = np.zeros(2000)
        x[900:] += 1.0
        snapshot = x.copy()
        mask = np.zeros(2000, dtype=bool)
        mask[900] = True
        realign_steps(x, mask, W_L)
        assert np.array_equal(x, snapshot)
