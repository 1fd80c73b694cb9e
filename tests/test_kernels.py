"""The sliding-window kernels against the per-index loops they replaced.

Each oracle below is the plain loop the package used before its
vectorised kernel; every comparison is ``np.array_equal``, not a
tolerance.  The end-to-end test swaps all five oracles into a full clean
and checks that the written output does not change by a byte.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dartclean import detector, pipeline, postprocess, preprocess, refiner, series_io, synth
from dartclean.errors import DataError
from dartclean.model import ModelConfig, Vae
from dartclean.preprocess import WindowBatch


def oracle_rolling_median_std(x, w):
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < w:
        raise DataError(f"series of length {n} shorter than window {w}")
    med = np.empty(n)
    std = np.empty(n)
    lo, hi = detector._window_bounds(n, w)
    for i in range(n):
        seg = x[lo[i]:hi[i]]
        med[i] = np.median(seg)
        std[i] = seg.std()
    return med, std


def oracle_step_mean_shift(x, w_l):
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < w_l:
        raise DataError(f"series of length {n} shorter than window {w_l}")
    half = w_l // 2
    delta = np.full(n, np.nan)
    for i in range(half, n - half + 1):
        delta[i] = abs(x[i:i + half].mean() - x[i - half:i].mean())
    return delta


def oracle_windows_to_series(window_values, origins, n):
    window_values = np.asarray(window_values, dtype=float)
    acc = np.zeros(n)
    count = np.zeros(n)
    w = window_values.shape[1]
    for row, origin in zip(window_values, origins):
        acc[origin:origin + w] += row
        count[origin:origin + w] += 1
    if np.any(count == 0):
        raise DataError("overlap-add: some samples are covered by no window")
    return acc / count


def oracle_gaussian_smooth(x, config=None):
    config = config or postprocess.SmoothConfig()
    x = np.asarray(x, dtype=float)
    n = len(x)
    w = config.window
    if n < w:
        raise DataError(f"series of length {n} shorter than smoothing window {w}")
    kernel = postprocess.gaussian_kernel(w, config.sigma)
    offsets = np.arange(w) - w // 2
    out = np.empty(n)
    for i in range(n):
        pos = i + offsets
        inside = (pos >= 0) & (pos < n)
        taps = kernel[inside]
        out[i] = float(np.dot(taps, x[pos[inside]]) / taps.sum())
    return out


def oracle_make_windows(series, w=48, s=1):
    values = np.asarray(series, dtype=float)
    origins = np.arange(0, len(values) - w + 1, s)
    windows = np.stack([values[o:o + w] for o in origins])
    return WindowBatch(windows=windows, origins=origins, window=w, stride=s)


def _series(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + np.linspace(0.0, 3.0, n)
    x[rng.integers(0, n, size=max(1, n // 50))] += 8.0
    return x


def _edge_shapes(windows):
    return [(w, n) for w in windows for n in (w, w + 1, 3 * w + 1)]


@pytest.mark.parametrize("w, n", _edge_shapes((3, 4, 5, 8, 48, 49)))
def test_rolling_median_std_edge_shapes(w, n):
    x = _series(n, seed=n + w)
    med, std = detector.rolling_median_std(x, w)
    med_o, std_o = oracle_rolling_median_std(x, w)
    assert np.array_equal(med, med_o)
    assert np.array_equal(std, std_o)


@pytest.mark.parametrize("w, n", _edge_shapes((3, 4, 5, 8, 480, 481)))
def test_step_mean_shift_edge_shapes(w, n):
    x = _series(n, seed=n + w)
    assert np.array_equal(detector.step_mean_shift(x, w),
                          oracle_step_mean_shift(x, w), equal_nan=True)


@pytest.mark.parametrize("window", [2, 5, 6, 7, 13])
@pytest.mark.parametrize("extra", [0, 1, 200])
def test_gaussian_smooth_windows(window, extra):
    x = _series(window + extra, seed=window)
    config = postprocess.SmoothConfig(window=window, sigma=1.5)
    assert np.array_equal(postprocess.gaussian_smooth(x, config),
                          oracle_gaussian_smooth(x, config))


@pytest.mark.parametrize("w, s", [(6, 2), (48, 5), (7, 7)])
def test_strided_windows_feed_overlap_add(w, s):
    n = w + 40 * s      # the last window ends on the last sample
    x = _series(n, seed=w * s)
    batch = preprocess.make_windows(x, w=w, s=s)
    expect = oracle_make_windows(x, w=w, s=s)
    assert np.array_equal(batch.windows, expect.windows)
    assert np.array_equal(batch.origins, expect.origins)
    assert batch.windows.flags.c_contiguous and batch.windows.base is None
    values = batch.windows * np.random.default_rng(s).normal(size=batch.windows.shape)
    assert np.array_equal(refiner.windows_to_series(values, batch.origins, n),
                          oracle_windows_to_series(values, batch.origins, n))


def test_overlap_add_arbitrary_origins():
    rng = np.random.default_rng(4)
    origins = np.array([5, 0, 3, 5, 1, 6])
    values = rng.normal(size=(len(origins), 4))
    assert np.array_equal(refiner.windows_to_series(values, origins, 10),
                          oracle_windows_to_series(values, origins, 10))


@pytest.mark.parametrize("origins", [[0, 7], [-1, 0, 4]], ids=["past-end", "before-start"])
def test_window_outside_series_rejected(origins):
    with pytest.raises(DataError, match="outside"):
        refiner.windows_to_series(np.ones((len(origins), 4)), np.array(origins), 10)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(w=st.integers(2, 40), extra=st.integers(0, 90), seed=st.integers(0, 2**16))
def test_kernels_match_oracles_property(w, extra, seed):
    n = w + extra
    x = _series(n, seed)
    for got, expect in zip(detector.rolling_median_std(x, w),
                           oracle_rolling_median_std(x, w)):
        assert np.array_equal(got, expect)
    assert np.array_equal(detector.step_mean_shift(x, w),
                          oracle_step_mean_shift(x, w), equal_nan=True)
    config = postprocess.SmoothConfig(window=w, sigma=1.0 + w / 4)
    assert np.array_equal(postprocess.gaussian_smooth(x, config),
                          oracle_gaussian_smooth(x, config))
    batch = preprocess.make_windows(x, w=w, s=1)
    assert np.array_equal(batch.windows, oracle_make_windows(x, w=w).windows)
    values = np.sin(batch.windows * (seed % 7 + 1))
    assert np.array_equal(refiner.windows_to_series(values, batch.origins, n),
                          oracle_windows_to_series(values, batch.origins, n))


@pytest.fixture(scope="module")
def contaminated():
    spec = synth.SynthSpec(n=3000, spike_count=12, step_count=1,
                           step_min_separation=1000, seed=11)
    raw = synth.generate(spec).to_raw_series()
    model = Vae(ModelConfig(window=24, hidden=(16, 8), latent=4), seed=3)
    stats = preprocess.NormStats(mean=float(raw.values.mean()),
                                 std=float(raw.values.std()))
    configs = (detector.DetectConfig(w_s=24, w_l=240),
               refiner.RefineConfig(iterations=4),
               postprocess.SmoothConfig())
    return model, stats, raw, configs


def _clean(contaminated):
    model, stats, raw, configs = contaminated
    result = pipeline.clean_series(model, stats, raw, *configs)
    buf = io.StringIO()
    series_io.write_cleaned_csv(result.output, buf)
    return result, buf.getvalue()


def test_clean_is_byte_identical_with_oracles(contaminated, monkeypatch):
    result, text = _clean(contaminated)
    assert result.spike_mask.any() and result.refine_log
    monkeypatch.setattr(detector, "rolling_median_std", oracle_rolling_median_std)
    monkeypatch.setattr(detector, "step_mean_shift", oracle_step_mean_shift)
    monkeypatch.setattr(refiner, "windows_to_series", oracle_windows_to_series)
    monkeypatch.setattr(refiner, "make_windows", oracle_make_windows)
    monkeypatch.setattr(postprocess, "gaussian_smooth", oracle_gaussian_smooth)
    expect, expect_text = _clean(contaminated)
    assert text == expect_text
    assert np.array_equal(result.output.cleaned, expect.output.cleaned)
    assert np.array_equal(result.spike_mask, expect.spike_mask)
    assert np.array_equal(result.step_mask, expect.step_mask)
    assert result.segments == expect.segments
    assert result.refine_log == expect.refine_log


def test_refine_same_with_and_without_detect_pass(contaminated):
    model, stats, raw, (detect_config, refine_config, _) = contaminated
    x = preprocess.zscore_normalize(preprocess.fill_gaps(raw), stats).values
    masks, _, _, first = pipeline.detect_anomalies(model, x, detect_config)
    handed = refiner.refine(model, x, masks, detect_config, refine_config, first)
    alone = refiner.refine(model, x, masks, detect_config, refine_config)
    assert np.array_equal(handed.series, alone.series)
    assert np.array_equal(handed.spike_mask, alone.spike_mask)
    assert np.array_equal(handed.step_mask, alone.step_mask)
    assert handed.log == alone.log
