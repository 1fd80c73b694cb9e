import numpy as np
import pytest

from dartclean import metrics, synth
from dartclean.errors import ConfigError, DataError
from dartclean.series_io import FLAG_MISSING
from tests.oracles import oracle_match_events, oracle_rate_of_change


class TestGenerate:
    def test_pure_tide_matches_closed_form(self):
        spec = synth.SynthSpec(n=2000, cadence=900.0, tides=((1.0, 44714.0, 0.0),),
                               noise_sigma=0.0)
        truth = synth.generate(spec)
        t = np.arange(2000) * 900.0
        expect = np.sin(2.0 * np.pi * t / 44714.0)
        assert np.array_equal(truth.contaminated, expect)
        assert np.array_equal(truth.clean, expect)

    def test_spike_support(self):
        spec = synth.SynthSpec(n=3000, spike_count=1, spike_amp_range=(10.0, 10.0),
                               noise_sigma=0.05, seed=1)
        truth = synth.generate(spec)
        noise_free = synth.generate(synth.SynthSpec(n=3000, noise_sigma=0.05, seed=1))
        diff = truth.contaminated - noise_free.contaminated
        support = np.flatnonzero(diff != 0.0)
        assert 1 <= support.size <= 3
        assert np.array_equal(support, truth.spike_indices)

    def test_determinism(self):
        spec = synth.SynthSpec(n=12000, spike_count=5, step_count=2, gap_count=2,
                               seed=99)
        a = synth.generate(spec)
        b = synth.generate(spec)
        assert np.array_equal(a.contaminated, b.contaminated)
        assert np.array_equal(a.spike_indices, b.spike_indices)
        assert np.array_equal(a.step_locations, b.step_locations)
        assert np.array_equal(a.gap_indices, b.gap_indices)

    def test_steps_are_persistent(self):
        spec = synth.SynthSpec(n=8000, step_count=2, noise_sigma=0.0, tides=(),
                               seed=4)
        truth = synth.generate(spec)
        for loc, mag in zip(truth.step_locations, truth.step_magnitudes):
            assert truth.contaminated[loc] - truth.contaminated[loc - 1] == pytest.approx(mag)

    def test_gap_flags_in_raw_series(self):
        spec = synth.SynthSpec(n=3000, gap_count=3, seed=5)
        truth = synth.generate(spec)
        raw = truth.to_raw_series()
        assert np.array_equal(np.flatnonzero(raw.flags == FLAG_MISSING),
                              truth.gap_indices)

    def test_linear_drift(self):
        spec = synth.SynthSpec(n=100, tides=(), noise_sigma=0.0,
                               drift="linear", drift_rate=0.01)
        truth = synth.generate(spec)
        assert np.allclose(truth.clean, 0.01 * np.arange(100))

    def test_impossible_placement_rejected(self):
        spec = synth.SynthSpec(n=1000, step_count=5, step_min_separation=3000)
        with pytest.raises(ConfigError):
            synth.generate(spec)

    def test_bad_drift_kind_rejected(self):
        with pytest.raises(ConfigError):
            synth.SynthSpec(drift="quadratic")


class TestSpikeF1:
    def test_perfect_prediction(self):
        mask = np.zeros(100, dtype=bool)
        mask[[10, 40, 70]] = True
        out = metrics.spike_f1(mask, [10, 40, 70])
        assert out["precision"] == out["recall"] == out["f1"] == 1.0

    def test_half_recall(self):
        mask = np.zeros(100, dtype=bool)
        mask[10] = True
        out = metrics.spike_f1(mask, [10, 50])
        assert out["precision"] == 1.0
        assert out["recall"] == 0.5
        assert out["f1"] == pytest.approx(2 * 0.5 / 1.5)

    def test_tolerance_window(self):
        mask = np.zeros(100, dtype=bool)
        mask[12] = True
        assert metrics.spike_f1(mask, [10], tolerance=2)["f1"] == 1.0
        assert metrics.spike_f1(mask, [9], tolerance=2)["f1"] == 0.0

    def test_empty_everything(self):
        out = metrics.spike_f1(np.zeros(10, dtype=bool), [])
        assert out["f1"] == 0.0

    def test_matches_brute_force_matcher(self, rng):
        from dartclean.detector import merge_segments
        for _ in range(20):
            mask = rng.random(200) < 0.05
            true_idx = sorted(rng.choice(200, size=6, replace=False))
            out = metrics.spike_f1(mask, true_idx, tolerance=2)
            segments = merge_segments(mask, 2)
            # brute force: count true events hit by at least one segment,
            # greedily consuming events as the production matcher does
            tp, n_pred, n_true = metrics.match_events(segments, true_idx, 2)
            assert (n_pred, n_true) == (len(segments), len(true_idx))
            assert tp <= min(n_pred, n_true)
            assert out["precision"] == (tp / n_pred if n_pred else 0.0)
            assert out["recall"] == tp / n_true
            assert 0.0 <= out["f1"] <= 1.0

    @pytest.mark.parametrize("merge_gap", range(4))
    def test_match_events_equals_the_nested_loop(self, rng, merge_gap):
        from dartclean.detector import merge_segments
        for _ in range(100):
            n = int(rng.integers(5, 301))
            mask = rng.random(n) < rng.uniform(0.01, 0.5)
            true_idx = np.flatnonzero(rng.random(n) < rng.uniform(0.01, 0.5))
            segments = merge_segments(mask, merge_gap)
            for tolerance in range(8):
                assert metrics.match_events(segments, true_idx, tolerance) == \
                    oracle_match_events(segments, true_idx, tolerance), (n, tolerance)


class TestTemporalConsistency:
    def test_identical_series(self, rng):
        x = rng.normal(size=100)
        assert metrics.temporal_consistency(x, x.copy()) == pytest.approx(1.0)

    def test_negated_series(self, rng):
        x = rng.normal(size=100)
        assert metrics.temporal_consistency(x, -x) == pytest.approx(-1.0)

    def test_matches_direct_formula(self, rng):
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        dx, dy = np.diff(x), np.diff(y)
        expect = (((dx - dx.mean()) * (dy - dy.mean())).mean()
                  / (dx.std() * dy.std()))
        assert abs(metrics.temporal_consistency(x, y) - expect) <= 1e-12

    def test_shift_invariance(self, rng):
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        assert metrics.temporal_consistency(x, y) == pytest.approx(
            metrics.temporal_consistency(x + 5.0, y), abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError):
            metrics.temporal_consistency(np.zeros(10), np.arange(10.0))


class TestResidualStats:
    def test_identical_series(self, rng):
        x = rng.normal(size=50)
        out = metrics.residual_stats(x, x.copy())
        assert out["max_abs"] == 0.0
        assert out["fraction_within_bound"] == 1.0

    def test_single_large_correction(self):
        raw = np.zeros(100)
        raw[30] = 2.5
        cleaned = np.zeros(100)
        out = metrics.residual_stats(raw, cleaned)
        assert out["max_abs"] == 2.5
        assert out["nonzero_count"] == 1
        assert out["nonzero_fraction_within_bound"] == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            metrics.residual_stats(np.zeros(3), np.zeros(4))


class TestRateOfChange:
    def test_constant_series(self):
        out = metrics.rate_of_change(np.full(10, 2.0), 900.0)
        assert out == {"min": 0.0, "max": 0.0}

    def test_ramp_unit_conversion(self):
        series = 0.1 * np.arange(20)
        out = metrics.rate_of_change(series, 60.0)
        rate = oracle_rate_of_change(series, 60.0)
        assert np.allclose(rate, 0.1)
        assert out == {"min": rate.min(), "max": rate.max()}

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            metrics.rate_of_change(np.array([1.0]), 60.0)


class TestProjectLatent:
    def test_identical_vectors_project_identically(self):
        mu = np.tile(np.arange(16.0), (5, 1))
        with pytest.warns(UserWarning):
            coords = metrics.project_latent(mu)
        assert np.allclose(coords, coords[0])

    def test_rank_one_latents_keep_their_first_two_centred_coordinates(self):
        # only the first coordinate varies, so the covariance has one
        # non-zero eigenvalue
        mu = np.tile(np.arange(16.0), (6, 1))
        mu[:, 0] = np.arange(6.0)
        with pytest.warns(UserWarning, match="rank-deficient"):
            coords = metrics.project_latent(mu)
        want = np.column_stack([np.arange(6.0) - 2.5, np.zeros(6)])
        assert np.array_equal(coords, want)

    def test_latent_width_one_gets_a_zero_second_column(self):
        mu = np.array([[1.0], [4.0], [2.5], [0.5]])
        with pytest.warns(UserWarning, match="rank-deficient"):
            coords = metrics.project_latent(mu)
        assert np.array_equal(coords, np.array([[-1.0, 0.0], [2.0, 0.0], [0.5, 0.0],
                                                [-1.5, 0.0]]))

    def test_planar_data_preserves_distances(self, rng):
        basis = np.linalg.qr(rng.normal(size=(16, 2)))[0]
        plane = rng.normal(size=(40, 2)) @ basis.T
        coords = metrics.project_latent(plane)
        for i in range(0, 40, 7):
            for j in range(i + 1, 40, 7):
                d_orig = np.linalg.norm(plane[i] - plane[j])
                d_proj = np.linalg.norm(coords[i] - coords[j])
                assert abs(d_orig - d_proj) <= 1e-9

    def test_projection_variance_equals_eigenvalues(self, rng):
        mu = rng.normal(size=(100, 16)) * np.linspace(3.0, 0.1, 16)
        coords = metrics.project_latent(mu)
        centered = mu - mu.mean(axis=0)
        top = np.sort(np.linalg.eigvalsh(centered.T @ centered / 100))[::-1][:2]
        var = (coords ** 2).sum(axis=0) / 100
        assert np.allclose(var, top, atol=1e-10)

    def test_columns_centred_and_uncorrelated(self, rng):
        coords = metrics.project_latent(rng.normal(size=(30, 16)))
        assert np.allclose(coords.mean(axis=0), 0.0, atol=1e-12)
        assert abs(coords[:, 0] @ coords[:, 1]) <= 1e-10 * np.sum(coords ** 2)

    def test_too_few_windows_rejected(self, rng):
        with pytest.raises(DataError):
            metrics.project_latent(rng.normal(size=(2, 16)))


class TestBaselineRollingMedian:
    def test_clean_series_unchanged(self):
        rng = np.random.default_rng(0)
        x = np.sin(np.linspace(0, 20, 2000)) + rng.normal(0, 0.01, 2000)
        cleaned, mask = metrics.baseline_rolling_median(x)
        assert np.array_equal(cleaned[~mask], x[~mask])
        assert mask.mean() < 0.02

    def test_spike_replaced_by_median(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 0.05, 2000)
        x[1000] += 3.0
        cleaned, mask = metrics.baseline_rolling_median(x)
        assert mask[1000]
        assert abs(cleaned[1000]) < 0.2

    def test_steps_left_intact(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 0.02, 4000)
        x[2000:] += 1.0
        cleaned, _ = metrics.baseline_rolling_median(x)
        # the baseline has no step handling: the shift persists
        assert cleaned[2100:3900].mean() - cleaned[100:1900].mean() > 0.8
