import numpy as np
import pytest

from dartclean.detector import AnomalyMasks, DetectConfig
from dartclean.errors import ConfigError, DataError
from dartclean.refiner import RefineConfig, refine
from tests.conftest import plain_decoder, tiny_model
from tests.oracles import oracle_make_windows, overlap_add


def _masks(n, spike_idx=(), step_idx=()):
    spike = np.zeros(n, dtype=bool)
    step = np.zeros(n, dtype=bool)
    spike[list(spike_idx)] = True
    step[list(step_idx)] = True
    return AnomalyMasks(spike=spike, step=step)


def _detect_cfg():
    # thresholds high enough that re-detection stays quiet on tame inputs
    return DetectConfig(w_s=8, w_l=16, tau_s=50.0, tau_l=50.0)


class TestWindowsToSeries:
    """The overlap-add of a refinement pass, ``Vae.infer_series``."""

    def test_unmodified_windows_identity(self, rng):
        x = rng.normal(size=120)
        _, back = plain_decoder(tiny_model(window=16), 1.0).infer_series(x)
        assert np.max(np.abs(back - x)) <= 1e-9

    def test_coverage_weights(self):
        # N=49, w=48: sample 0 covered once, sample 24 twice (by column 24 of
        # the window at origin 0 and column 23 of the one at origin 1)
        model = plain_decoder(tiny_model(window=48), 0.0, bias=np.arange(48.0))
        _, out = model.infer_series(np.zeros(49))
        assert out[0] == 0.0
        assert out[24] == 23.5
        assert out[48] == 47.0

    def test_matches_naive_accumulation(self, rng):
        model = tiny_model(window=12, seed=1)
        x = rng.normal(size=90)
        _, out = model.infer_series(x)
        batch = oracle_make_windows(x, w=12)
        _, decoded = model.infer(batch.windows)
        assert np.array_equal(out, overlap_add(decoded, batch.origins, 90))

    def test_uncovered_sample_rejected(self):
        # a series shorter than one window leaves every sample uncovered
        with pytest.raises(DataError):
            tiny_model(window=12).infer_series(np.zeros(10))


class TestRefine:
    def test_empty_masks_identity(self, rng):
        model = tiny_model(seed=1)
        x = rng.normal(size=80)
        result = refine(model, x, _masks(80), _detect_cfg(),
                        RefineConfig(iterations=5))
        assert np.array_equal(result.series, x)
        assert all(r.masked_count == 0 for r in result.log)
        assert all(r.mean_change == 0.0 for r in result.log)

    def test_gating_bit_exactness(self, rng):
        model = tiny_model(seed=2)
        x = rng.normal(size=100)
        x[40] += 6.0
        masks = _masks(100, spike_idx=(40,), step_idx=(70,))
        cfg = RefineConfig(iterations=10, keep_history=True)
        result = refine(model, x, masks, _detect_cfg(), cfg)
        previous = x
        assert len(result.history) == 10
        for series, gate in result.history:
            assert np.array_equal(series[~gate], np.asarray(previous)[~gate])
            previous = series
        assert np.array_equal(result.series, result.history[-1][0])

    def test_masked_samples_move_toward_reconstruction(self, rng):
        model = tiny_model(seed=3)
        x = rng.normal(size=100)
        x[50] += 10.0
        result = refine(model, x, _masks(100, spike_idx=(50,)), _detect_cfg())
        assert result.series[50] != x[50]
        untouched = np.ones(100, dtype=bool)
        untouched[50] = False
        assert np.array_equal(result.series[untouched], x[untouched])

    def test_determinism(self, rng):
        model = tiny_model(seed=4)
        x = rng.normal(size=90)
        masks = _masks(90, spike_idx=(30, 31))
        a = refine(model, x, masks, _detect_cfg())
        b = refine(model, x, masks, _detect_cfg())
        assert np.array_equal(a.series, b.series)

    def test_blend_halves_latent_motion(self):
        # the documented blend: z_k <- 0.5 z_k + 0.5 z_{k-1}
        cfg = RefineConfig(blend_alpha=0.5)
        z_prev = np.zeros(4)
        z_new = np.full(4, 2.0)
        blended = cfg.blend_alpha * z_new + (1 - cfg.blend_alpha) * z_prev
        assert np.array_equal(blended, np.ones(4))

    def test_early_exit(self, rng):
        model = tiny_model(seed=5)
        x = rng.normal(size=80)
        masks = _masks(80, spike_idx=(30, 31))
        result = refine(model, x, masks, _detect_cfg(), RefineConfig(iterations=10, tolerance=1e6))
        assert len(result.log) == 1  # huge tolerance: exit after round 1
        # the default tolerance 0.0 never exits: no mean |change| is below it
        assert len(refine(model, x, masks, _detect_cfg()).log) == 10

    def test_mask_length_mismatch_rejected(self, rng):
        model = tiny_model()
        with pytest.raises(DataError):
            refine(model, rng.normal(size=80), _masks(50), _detect_cfg())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RefineConfig(iterations=0)
        with pytest.raises(ConfigError):
            RefineConfig(blend_alpha=1.5)
        with pytest.raises(ConfigError):
            RefineConfig(threshold_decay=0.0)


class TestIterationLog:
    def test_single_round(self, rng):
        model = tiny_model(seed=6)
        x = rng.normal(size=80)
        result = refine(model, x, _masks(80, spike_idx=(10,)), _detect_cfg(),
                        RefineConfig(iterations=1))
        assert len(result.log) == 1
        assert result.log[0].iteration == 1

    def test_empty_mask_skips_the_loop_entirely(self, rng):
        model = tiny_model(seed=7)
        x = rng.normal(size=80)
        result = refine(model, x, _masks(80), _detect_cfg(),
                        RefineConfig(iterations=4))
        assert result.log == []
        assert np.array_equal(result.series, x)
