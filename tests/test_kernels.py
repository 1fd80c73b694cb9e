"""The sliding-window kernels against the per-index loops they replaced.

Each oracle is the plain loop the package used before its vectorised
kernel; every comparison is ``np.array_equal``, not a tolerance.  The
end-to-end test swaps the oracles, with the windowed refinement pass of
``tests/oracles.py``, into a full clean and checks that the written output
does not change by a byte.
"""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from dartclean import detector, pipeline, postprocess, preprocess, refiner, series_io, synth
from dartclean.errors import DataError
from dartclean.model import ModelConfig, Vae
from tests.oracles import oracle_infer_pass, oracle_make_windows, overlap_add


def oracle_rolling_median_std(x, w):
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < w:
        raise DataError(f"series of length {n} shorter than window {w}")
    med = np.empty(n)
    std = np.empty(n)
    for i in range(n):
        seg = x[max(0, i - w // 2):min(n, i + w - w // 2)]
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


def _series(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + np.linspace(0.0, 3.0, n)
    x[rng.integers(0, n, size=max(1, n // 50))] += 8.0
    return x


def _edge_shapes(windows):
    return [(w, n) for w in windows for n in (w, w + 1, 3 * w + 1)]


# the view of n samples has n - w + 1 rows; one row past a whole number of
# rolling blocks makes one more block
@pytest.mark.parametrize("w, n", [
    *_edge_shapes((3, 4, 5, 8, 48, 49)),
    *[(48, blocks * detector.ROLLING_BLOCK_ROWS + 47 + row)
      for blocks in (1, 2) for row in (0, 1)],
    (480, 4 * detector.ROLLING_BLOCK_ROWS + 480),
])
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
    view = sliding_window_view(x, w)
    windows, origins = view[::s], np.arange(len(view))[::s]
    expect = oracle_make_windows(x, w=w, s=s)
    assert np.array_equal(windows, expect.windows)
    assert np.array_equal(origins, expect.origins)
    # every s-th window covers every sample, so they overlap-add back to x
    assert np.allclose(overlap_add(windows, origins, n), x, rtol=0.0, atol=1e-9)


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
    assert np.array_equal(sliding_window_view(x, w), oracle_make_windows(x, w=w).windows)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(w=st.integers(3, 500), extra=st.integers(0, 300), seed=st.integers(0, 2**16),
       decimals=st.integers(0, 2), signed_zeros=st.booleans(), nans=st.integers(0, 3))
def test_rolling_median_sort_matches_np_median_property(w, extra, seed, decimals,
                                                         signed_zeros, nans):
    """The sorted-row median against ``np.median`` per window, on ties,
    -0.0 beside +0.0 and NaNs; ``==`` holds -0.0 equal to +0.0, so only
    a zero median's sign may differ."""
    n = w + extra
    rng = np.random.default_rng(seed)
    if signed_zeros:
        x = rng.choice([-0.0, 0.0, -1.0, 1.0], size=n)
    else:
        x = rng.normal(size=n).round(decimals)   # ties in the medians
    x[rng.integers(0, n, size=nans)] = np.nan
    for got, expect in zip(detector.rolling_median_std(x, w),
                           oracle_rolling_median_std(x, w)):
        assert np.array_equal(got, expect, equal_nan=True)


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
    monkeypatch.setattr(refiner, "infer_pass", oracle_infer_pass)
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
    masks, first = pipeline.detect_anomalies(model, x, detect_config)
    refine_config = dataclasses.replace(refine_config, keep_history=True)
    handed = refiner.refine(model, x, masks, detect_config, refine_config, first)
    alone = refiner.refine(model, x, masks, detect_config, refine_config)
    assert np.array_equal(handed.series, alone.series)
    assert np.array_equal(handed.history[-1][1], alone.history[-1][1])
    assert np.array_equal(handed.step_mask, alone.step_mask)
    assert handed.log == alone.log
