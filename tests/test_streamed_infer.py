"""The streamed refinement pass against the windowed pass it replaced.

``Vae.infer_series`` encodes each row block from a sliding view of the
series and overlap-adds each decoded block into one accumulator, so a
clean never holds a windows x window array.  The oracle pass is the one
the refiner ran before: copy every stride-1 window, run the infer-mode
forward on the copy, and overlap-add (``tests/oracles.py``).  Every
comparison is to the bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dartclean import (detector, model as model_module, pipeline, postprocess, preprocess,
                       refiner, series_io, synth)
from dartclean.errors import DataError, NumericError, ShapeError
from dartclean.model import ModelConfig, Vae
from tests.conftest import perturbed_model, tiny_model, traced_peak
from tests.oracles import oracle_infer_pass, oracle_make_windows, overlap_add
from tests.test_infer import identical


# window counts around the row-block edges: 1 024 rows a block of a 16-wide
# model, none under 76
WINDOW_COUNTS = [1, 75, 76, 1023, 1024, 1025, 2048, 2049, 2085]


@pytest.mark.parametrize("blend", [False, True], ids=["plain", "blend"])
@pytest.mark.parametrize("w", [7, 12])
@pytest.mark.parametrize("count", WINDOW_COUNTS)
def test_infer_series_matches_windowed_pass(count, w, blend):
    model = perturbed_model((16, 8), seed=w, window=w)
    rng = np.random.default_rng(count + w)
    n = count + w - 1
    x = rng.normal(size=n) + np.linspace(0.0, 2.0, n)
    prev_z = rng.normal(size=(count, model.config.latent)) if blend else None
    z, recon = model.infer_series(x, None if prev_z is None else prev_z.copy(), 0.5)
    batch = oracle_make_windows(x, w=w)
    z_o, decoded = model.infer(batch.windows, prev_z, 0.5)
    recon_o = overlap_add(decoded, batch.origins, n)
    assert np.array_equal(z, z_o) and identical(z, z_o)
    assert np.array_equal(recon, recon_o) and identical(recon, recon_o)


@pytest.mark.parametrize("w", [7, 12])
@pytest.mark.parametrize("count", [1, 76, 2049])
def test_fused_overlap_add_of_arbitrary_values(count, w):
    # a decoder whose output is far from its input: the overlap-add alone,
    # on values whose sums round differently in any other order
    model = perturbed_model((16, 8), seed=1, window=w)
    rng = np.random.default_rng(count)
    model.out_layer.b[...] = rng.normal(0.0, 1e3, w)
    model.beta[...] = 1e-7
    x = rng.normal(size=count + w - 1) * 1e4
    _, recon = model.infer_series(x)
    _, decoded = model.infer(oracle_make_windows(x, w=w).windows)
    assert identical(recon, overlap_add(decoded, np.arange(count), len(x)))


def test_infer_series_writes_the_blend_over_prev_z():
    model = perturbed_model((16, 8), seed=3, window=12)
    rng = np.random.default_rng(5)
    x = rng.normal(size=2100)   # 2 089 windows: two row blocks
    prev_z = rng.normal(size=(2089, model.config.latent))
    want, _ = model.infer(oracle_make_windows(x, w=12).windows, prev_z.copy(), 0.5)
    z, _ = model.infer_series(x, prev_z, 0.5)
    assert z is prev_z and identical(z, want)


@pytest.mark.parametrize("make", [
    lambda z: np.require(z, requirements="F"),
    lambda z: z.astype(np.float32),
    lambda z: z.astype(int),
    lambda z: np.broadcast_to(z, z.shape),   # read-only
    lambda z: z.tolist(),
], ids=["fortran", "float32", "integer", "read-only", "list"])
def test_infer_series_rejects_latents_it_cannot_overwrite(make):
    model = perturbed_model((16, 8), window=12)
    prev_z = make(np.zeros((89, model.config.latent)))
    with pytest.raises(ShapeError, match="writable, C-contiguous float64"):
        model.infer_series(np.zeros(100), prev_z, 0.5)


def test_every_refinement_round_writes_one_latent_array(monkeypatch):
    spec = synth.SynthSpec(n=20000, cadence=900.0, noise_sigma=0.05, spike_count=40, seed=7)
    raw = synth.generate(spec).to_raw_series()
    stats = preprocess.NormStats(mean=float(raw.values.mean()), std=float(raw.values.std()))
    passes = []

    def recording(*args, **kwargs):
        passes.append(infer_pass(*args, **kwargs))
        return passes[-1]

    infer_pass = refiner.infer_pass
    monkeypatch.setattr(refiner, "infer_pass", recording)
    model = Vae(ModelConfig(hidden=(16, 8), latent=4), seed=0)
    result = pipeline.clean_series(model, stats, raw)
    # the detect pass is round 1; rounds 2-10 blend into its latents
    assert len(result.refine_log) == len(passes) == 10
    assert all(p.z is passes[0].z for p in passes[1:])


def test_infer_series_rejects_short_series():
    with pytest.raises(DataError, match="shorter than window"):
        perturbed_model((16, 8), window=12).infer_series(np.zeros(11))


def test_infer_series_encoder_fault_beats_decoder_fault():
    model = perturbed_model((16, 8), window=6)
    model.out_layer.b[0] = np.inf
    x = np.random.default_rng(0).normal(size=3000)
    with pytest.raises(NumericError, match="decoder"):
        model.infer_series(x)
    x[-1] = np.nan   # only the last window, in the last encoder block
    with pytest.raises(NumericError, match="encoder"):
        model.infer_series(x)


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
    return result, "".join(series_io.write_cleaned_csv(result.output))


def test_clean_is_byte_identical_with_windowed_pass(contaminated, monkeypatch):
    # 2 977 windows of 24 samples: two row blocks per pass
    result, text = _clean(contaminated)
    assert result.spike_mask.any() and len(result.refine_log) == 4
    monkeypatch.setattr(refiner, "infer_pass", oracle_infer_pass)
    expect, expect_text = _clean(contaminated)
    assert text == expect_text
    assert np.array_equal(result.output.cleaned, expect.output.cleaned)
    assert np.array_equal(result.spike_mask, expect.spike_mask)
    assert np.array_equal(result.step_mask, expect.step_mask)
    assert result.segments == expect.segments
    assert result.refine_log == expect.refine_log


# a clean holds its input, the current and next series and the masks,
# one n x latent array of latents that each pass overwrites and one
# pass's recon, deviation and row-block scratch; whole-series window
# copies (48 float64 each per sample) put the windowed pass at ~210
# float64 a sample
PEAK_BYTES_PER_SAMPLE = 150 * 8


def test_clean_peak_memory_is_bounded_per_sample():
    spec = synth.SynthSpec(n=20000, cadence=900.0, noise_sigma=0.05,
                           spike_count=40, seed=7)
    raw = synth.generate(spec).to_raw_series()
    stats = preprocess.NormStats(mean=float(raw.values.mean()),
                                 std=float(raw.values.std()))
    model = Vae(ModelConfig(hidden=(128, 64, 32)), seed=0)
    peak = traced_peak(pipeline.clean_series, model, stats, raw)[1]
    assert peak < PEAK_BYTES_PER_SAMPLE * spec.n, f"{peak / spec.n / 8:.0f} float64 a sample"


def test_station_year_clean_peak_memory_is_bounded(monkeypatch):
    # a year at 15-minute cadence with gaps, drift and two steps, on two
    # workers: the input and the series-length arrays a clean keeps
    # (~2.5 MB), the 34 993 x 16 latents (4.5 MB) and one pass's scratch,
    # blocks of ~1 029 rows into two workers' 64- and 128-wide buffers
    # (3.2 MB), come to ~10.7 MB.  Decoded blocks waiting for the calling
    # thread, both buffers at the widest layer and the last pass's spent
    # recon and deviation held through the next pass took 14.7 MB
    monkeypatch.setattr(model_module, "workers", lambda count: min(2, count))
    spec = synth.SynthSpec(n=35040, cadence=900.0, noise_sigma=0.05,
                           tides=[[0.3, 43200.0, 0.0], [0.15, 21600.0, 1.3]],
                           spike_count=24, step_count=2, step_mag_range=[0.1, 0.2],
                           drift="linear", drift_rate=3e-6, gap_count=12,
                           gap_len_range=[2, 8], seed=365)
    raw = synth.generate(spec).to_raw_series()
    stats = preprocess.zscore_normalize(preprocess.fill_gaps(raw)).stats
    model = Vae(ModelConfig(hidden=(128, 64, 32)), seed=0)
    result, peak = traced_peak(pipeline.clean_series, model, stats, raw)
    assert len(result.refine_log) == 10
    assert peak < 12_000_000, f"{peak:,} bytes"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(40, 160), seed=st.integers(0, 2**16),
       spike_p=st.sampled_from([0.0, 0.02, 0.1, 0.4]),
       step_p=st.sampled_from([0.0, 0.01, 0.05]),
       tau_s=st.sampled_from([1.0, 2.0, 50.0]))
def test_refine_leaves_every_sample_outside_the_gate_untouched(n, seed, spike_p, step_p,
                                                                tau_s):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x[rng.integers(0, n, size=3)] += 6.0
    masks = detector.AnomalyMasks(spike=rng.random(n) < spike_p, step=rng.random(n) < step_p)
    config = detector.DetectConfig(w_s=8, w_l=16, tau_s=tau_s, tau_l=0.5)
    result = refiner.refine(tiny_model(seed=seed % 5), x, masks, config,
                            refiner.RefineConfig(iterations=3, keep_history=True))
    # the last round's gate, the final spike mask or step mask
    gate = result.history[-1][1] if result.history else np.zeros(n, dtype=bool)
    assert not (masks.spike & ~gate).any()
    assert not (masks.step & ~result.step_mask).any()
    assert result.series[~gate].tobytes() == x[~gate].tobytes()
