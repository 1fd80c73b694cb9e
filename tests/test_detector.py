import numpy as np
import pytest

from dartclean.detector import (
    DetectConfig,
    build_masks,
    detect_steps,
    hybrid_score,
    merge_segments,
    rolling_median_std,
    step_mean_shift,
)
from dartclean.errors import ConfigError, DataError
from dartclean.metrics import baseline_rolling_median
from dartclean.pipeline import detect_anomalies
from tests.oracles import oracle_hybrid_score


class FixedDecoder:
    """Stands in for a model whose every pass decodes the series to ``recon``."""

    def __init__(self, recon):
        self.recon = recon

    def infer_series(self, x, prev_z, blend_alpha):
        return np.zeros((len(x), 1)), self.recon


def re_spikes(x, recon, kappa=3.0):
    """The detect pass's spike mask when the hybrid score is the
    reconstruction error |x - recon| alone (``hybrid_alpha=1``)."""
    masks, _ = detect_anomalies(FixedDecoder(recon), x,
                                DetectConfig(hybrid_alpha=1.0, kappa=kappa))
    return masks.spike


class TestReconstructionError:
    def test_identical_series_zero(self, rng):
        x = rng.normal(size=1000)
        assert not re_spikes(x, x.copy()).any()

    def test_small_example(self, rng):
        x = rng.normal(size=1000)
        recon = x.copy()
        recon[123] += 1.0
        assert list(np.flatnonzero(re_spikes(x, recon))) == [123]

    def test_matches_elementwise_loop(self, rng):
        x = rng.normal(size=1000)
        xhat = rng.normal(size=1000)
        re = np.array([abs(x[i] - xhat[i]) for i in range(1000)])
        _, expect = re_threshold((re - re.min()) / (re.max() - re.min()))
        assert np.array_equal(np.flatnonzero(re_spikes(x, xhat)), expect)


def re_threshold(re: np.ndarray, kappa: float = 3.0):
    """Threshold tau = mean + kappa * population std; returns (tau, indices).
    The reconstruction-error rule that ``hybrid_score`` reduces to at
    ``hybrid_alpha=1`` on min-max scaled errors."""
    re = np.asarray(re, dtype=float)
    if re.size == 0:
        raise DataError("empty reconstruction-error array")
    tau = float(re.mean() + kappa * re.std())
    return tau, np.flatnonzero(re > tau)


class TestReThreshold:
    def test_constant_re_empty_set(self):
        tau, idx = re_threshold(np.full(100, 0.25), kappa=3.0)
        assert tau == 0.25
        assert idx.size == 0

    def test_single_outlier_flagged(self):
        re = np.zeros(1000)
        re[123] = 1.0
        tau, idx = re_threshold(re, kappa=3.0)
        assert tau == pytest.approx(0.001 + 3.0 * np.sqrt(0.001 - 0.001**2))
        assert list(idx) == [123]

    def test_kappa_zero_is_mean(self, rng):
        re = np.abs(rng.normal(size=500))
        tau, _ = re_threshold(re, kappa=0.0)
        assert tau == pytest.approx(re.mean())

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            re_threshold(np.array([]))


class TestRollingMedianStd:
    def test_matches_brute_force_on_10k(self, rng):
        x = rng.normal(size=10_000)
        w = 48
        med, std = rolling_median_std(x, w)
        lo = np.maximum(0, np.arange(10_000) - w // 2)
        hi = np.minimum(10_000, np.arange(10_000) + (w - w // 2))
        for i in range(10_000):
            seg = x[lo[i]:hi[i]]
            assert med[i] == np.median(seg)
            assert std[i] == seg.std()

    def test_constant_series(self):
        med, std = rolling_median_std(np.full(100, 2.0), 48)
        assert np.array_equal(med, np.full(100, 2.0))
        assert not std.any()

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            rolling_median_std(np.zeros(10), 48)


def spikes(x, config):
    """The rolling-median spike mask the eval baseline replaces."""
    return baseline_rolling_median(x, config)[1]


class TestDetectSpikes:
    def test_constant_series_empty_mask(self):
        assert not spikes(np.full(200, 1.5), DetectConfig()).any()

    def test_impulse_in_seeded_noise(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 0.1, 2000)
        x[700] += 1.0  # +10 sigma
        mask = spikes(x, DetectConfig())
        assert mask[700]
        clean = np.ones(2000, dtype=bool)
        clean[700] = False
        assert (~mask[clean]).mean() >= 0.99

    def test_translation_invariance(self, rng):
        x = rng.normal(size=500)
        x[100] += 8.0
        cfg = DetectConfig()
        assert np.array_equal(spikes(x, cfg), spikes(x + 123.4, cfg))

    def test_scale_invariance(self, rng):
        x = rng.normal(size=500)
        x[250] += 8.0
        cfg = DetectConfig()
        assert np.array_equal(spikes(x, cfg), spikes(3.7 * x, cfg))

    def test_override_threshold(self, rng):
        x = rng.normal(size=500)
        loose = spikes(x, DetectConfig(tau_s=10.0))
        tight = spikes(x, DetectConfig(tau_s=1.0))
        assert tight.sum() >= loose.sum()


class TestDetectSteps:
    def test_ideal_step_located_exactly(self):
        x = np.zeros(1000)
        x[500:] = 1.0
        mask = detect_steps(x, DetectConfig())
        assert list(np.flatnonzero(mask)) == [500]
        assert step_mean_shift(x, DetectConfig().w_l)[500] == 1.0

    def test_constant_series_no_steps(self):
        mask = detect_steps(np.zeros(1000), DetectConfig())
        assert not mask.any()

    def test_two_steps_in_noise(self):
        rng = np.random.default_rng(17)
        x = rng.normal(0.0, 0.05, 8000)
        x[2000:] += 0.5
        x[5000:] += 0.5
        mask = detect_steps(x, DetectConfig())
        found = np.flatnonzero(mask)
        for true_loc in (2000, 5000):
            assert np.abs(found - true_loc).min() <= 240

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            detect_steps(np.zeros(100), DetectConfig())


class TestStepMeanShift:
    def test_matches_direct_means(self, rng):
        x = rng.normal(size=1200)
        w_l = 480
        delta = step_mean_shift(x, w_l)
        half = w_l // 2
        for i in range(half, len(x) - half + 1):
            assert delta[i] == abs(x[i:i + half].mean() - x[i - half:i].mean())
        assert np.all(np.isnan(delta[:half]))

    def test_edges_are_nan(self):
        delta = step_mean_shift(np.zeros(600), 480)
        assert np.isnan(delta[0]) and np.isnan(delta[-1])


class TestHybridScore:
    """``hybrid_score``'s mask against the indices of the score oracle."""

    def test_weighting_formula(self, rng):
        re = np.zeros(100)
        re[10] = 1.0
        stat = np.zeros(100)
        stat[20] = 1.0
        score, idx = oracle_hybrid_score(re, stat, hybrid_alpha=0.7)
        assert score[10] == pytest.approx(0.7)
        assert score[20] == pytest.approx(0.3)
        assert list(idx) == [10, 20]
        assert np.array_equal(np.flatnonzero(hybrid_score(re, stat, hybrid_alpha=0.7, kappa=3.0)), idx)
        for _ in range(20):
            re, stat = np.abs(rng.standard_cauchy(size=(2, 500)))
            _, idx = oracle_hybrid_score(re, stat, hybrid_alpha=0.7)
            assert np.array_equal(np.flatnonzero(hybrid_score(re, stat, hybrid_alpha=0.7, kappa=3.0)), idx)

    def test_alpha_one_matches_scaled_re_threshold(self, rng):
        re = np.abs(rng.normal(size=1000))
        re[44] += 20.0
        stat = np.abs(rng.normal(size=1000))
        mask = hybrid_score(re, stat, hybrid_alpha=1.0, kappa=3.0)
        scaled = (re - re.min()) / (re.max() - re.min())
        _, ref_idx = re_threshold(scaled, kappa=3.0)
        assert 44 in ref_idx
        assert np.array_equal(np.flatnonzero(mask), ref_idx)
        assert np.array_equal(np.flatnonzero(mask), oracle_hybrid_score(re, stat, 1.0, 3.0)[1])

    def test_zero_range_component_contributes_nothing(self, rng):
        re = np.abs(rng.normal(size=200))
        score, idx = oracle_hybrid_score(re, np.zeros(200), hybrid_alpha=0.7)
        assert np.array_equal(score, 0.7 * ((re - re.min()) / (re.max() - re.min())))
        mask = hybrid_score(re, np.zeros(200), hybrid_alpha=0.7, kappa=3.0)
        assert idx.size and np.array_equal(np.flatnonzero(mask), idx)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            hybrid_score(np.zeros(5), np.zeros(6), 0.7, 3.0)


class TestMergeSegments:
    def test_gap_one_fuses(self):
        mask = np.array([True, False, True])
        assert merge_segments(mask, merge_gap=1) == [(0, 2)]

    def test_gap_zero_is_maximal_runs(self):
        mask = np.array([True, False, True, True, False, False, True])
        assert merge_segments(mask, merge_gap=0) == [(0, 0), (2, 3), (6, 6)]

    def test_matches_linear_scan_oracle(self, rng):
        for trial in range(31):
            # the last trial is one run over the whole mask
            mask = rng.random(80) < 0.3 if trial < 30 else np.ones(80, dtype=bool)
            gap = int(rng.integers(0, 4))
            got = merge_segments(mask, gap)
            # one-pass reference scanner
            expect = []
            run_start = None
            last_true = None
            for i, flag in enumerate(mask):
                if flag:
                    if run_start is None:
                        run_start = i
                    elif i - last_true - 1 > gap:
                        expect.append((run_start, last_true))
                        run_start = i
                    last_true = i
            if run_start is not None:
                expect.append((run_start, last_true))
            assert got == expect, (trial, gap)

    def test_gap_zero_covers_same_indices(self, rng):
        mask = rng.random(200) < 0.2
        covered = np.zeros(200, dtype=bool)
        for start, end in merge_segments(mask, 0):
            covered[start:end + 1] = True
        assert np.array_equal(covered, mask)

    def test_empty_mask(self):
        assert merge_segments(np.zeros(10, dtype=bool), 2) == []


class TestBuildMasks:
    def test_segments_sorted_and_typed(self):
        spike = np.zeros(600, dtype=bool)
        spike[100] = spike[101] = True
        step = np.zeros(600, dtype=bool)
        step[50] = True
        masks = build_masks(spike, step, merge_gap=2)
        assert masks.segments == [("step", 50, 50), ("spike", 100, 101)]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DetectConfig(w_s=2)
        with pytest.raises(ConfigError):
            DetectConfig(hybrid_alpha=1.5)
        with pytest.raises(ConfigError):
            DetectConfig(tau_s=0.0)
