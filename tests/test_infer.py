"""The row-blocked inference forward against the cached encode/decode.

``Vae.infer`` must equal the cached infer-mode encode -> blend -> decode
the refiner ran before ``Vae.infer`` existed (``oracle_infer``) bit for
bit, so every comparison here is ``np.array_equal`` and, where the sign
of a zero could differ, a byte comparison.
"""

import io

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from dartclean import (detector, model as model_module, pipeline, postprocess, preprocess,
                       refiner, series_io, synth)
from dartclean.blocks import map_blocks, row_blocks
from dartclean.errors import NumericError, ShapeError
from dartclean.model import ModelConfig, Vae, infer_block
from tests.conftest import perturbed_model, traced_peak
from tests.oracles import oracle_infer, oracle_infer_series


def identical(a, b):
    """Equal to the bit: unlike ``np.array_equal``, tells -0.0 from 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


WIDTHS = [(128, 64, 32), ModelConfig().hidden]
BATCHES = [1, 75, 1023, 1024, 1025, 2085, 5000]


@pytest.fixture(scope="module", params=WIDTHS, ids=lambda h: "x".join(map(str, h)))
def model(request):
    return perturbed_model(request.param)


@pytest.mark.parametrize("blend", [False, True], ids=["plain", "blend"])
@pytest.mark.parametrize("rows", BATCHES)
def test_infer_matches_encode_decode(model, rows, blend):
    rng = np.random.default_rng(rows)
    X = rng.normal(size=(rows, model.config.window))
    prev_z = rng.normal(size=(rows, model.config.latent)) if blend else None
    z, xhat = model.infer(X, prev_z, 0.5)
    z_o, xhat_o = oracle_infer(model, X, prev_z, 0.5)
    assert np.array_equal(z, z_o) and identical(z, z_o)
    assert np.array_equal(xhat, xhat_o) and identical(xhat, xhat_o)


@pytest.mark.parametrize("n", [1, 75, 1023, 1024, 1025, 2047, 2048, 2085, 19953])
def test_row_blocks_cover_in_near_equal_blocks(n):
    blocks = row_blocks(n, 1024)
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    sizes = [hi - lo for lo, hi in blocks]
    assert min(sizes) >= min(n, 1024)
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("width", [48, 128, 129, 512, 5000])
def test_infer_blocks_are_sized_by_bytes(width):
    rows, got, _ = infer_block(ModelConfig(hidden=(width,)))
    assert got == (48, width)   # the window and both latent heads; the layer
    assert 76 <= rows <= 1024
    assert rows * width <= 2 ** 17 or rows == 76
    if width <= 128:
        assert rows == 1024
    for n in (1, 75, 76, 1995, 5953):
        sizes = [hi - lo for lo, hi in row_blocks(n, rows)]
        assert all(min(n, rows) <= size < 2 * rows for size in sizes)


@pytest.mark.parametrize("n", [1995, 5953])
def test_wide_model_matches_oracle_in_byte_sized_blocks(n):
    # a validation set's and a 6 000-sample clean's windows, in blocks of
    # 256 to 511 rows of the default model
    model = perturbed_model(ModelConfig().hidden)
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, model.config.window))
    prev_z = rng.normal(size=(n, model.config.latent))
    for got, expect in zip(model.infer(X, prev_z, 0.5), oracle_infer(model, X, prev_z, 0.5)):
        assert identical(got, expect)
    x = rng.normal(size=n + model.config.window - 1)
    for got, expect in zip(model.infer_series(x), oracle_infer_series(model, x)):
        assert identical(got, expect)


@pytest.mark.parametrize("window, hidden, latent, widths", [
    (48, (128, 64, 32), 16, (64, 128)), (48, (512, 256, 128), 16, (256, 512)),
    (12, (16, 8), 4, (12, 16)), (4, (3,), 9, (18, 4)), (4, (5, 2), 9, (4, 18)),
    (48, (100, 20, 200, 30), 4, (48, 200))])
def test_scratch_buffers_are_as_wide_as_what_each_holds(window, hidden, latent, widths):
    # the ping-pong writes hidden layer i into the second buffer for even
    # i, the first for odd i, and both latent heads into the buffer the
    # last hidden layer leaves; a blended pass runs in buffers this wide
    config = ModelConfig(window=window, hidden=hidden, latent=latent)
    assert infer_block(config)[1] == widths
    model = Vae(config, seed=1)
    rng = np.random.default_rng(1)
    X, prev_z = rng.normal(size=(80, window)), rng.normal(size=(80, latent))
    for got, expect in zip(model.infer(X, prev_z, 0.5), oracle_infer(model, X, prev_z, 0.5)):
        assert identical(got, expect)


def test_wide_infer_series_scratch_is_bounded(monkeypatch):
    # one worker's 1 995 windows of the default 512-wide model: seven
    # blocks of 285 rows put its 256- and 512-wide scratch buffers at
    # 1.75 MB, and with the 0.26 MB latents and two 18 KB seams the pass
    # holds ~2.1 MB; one 1 995-row block would take 12.3 MB of scratch
    monkeypatch.setattr(model_module, "workers", lambda count: 1)
    model = perturbed_model(ModelConfig().hidden)
    x = np.random.default_rng(0).normal(size=1995 + model.config.window - 1)
    peak = traced_peak(model.infer_series, x)[1]
    assert peak < 2.4 * 2**20, f"{peak:,} bytes"


def test_wide_window_seams_are_sized_by_the_block(monkeypatch):
    # 400 windows of 2 000 samples on two workers: five 80-row blocks put
    # the two workers' scratch buffers at 5.1 MB, the four seam slots of 80
    # rows at 5.1 MB and the seam's order at 2.5 MB.  Slots and an order of
    # w - 1 rows would take 128 MB and 48 MB
    monkeypatch.setattr(model_module, "workers", lambda count: min(2, count))
    model = Vae(ModelConfig(window=2000, hidden=(8,)), seed=0)
    x = np.random.default_rng(0).normal(size=400 + 2000 - 1)
    got, peak = traced_peak(model.infer_series, x)
    assert peak < 16 * 2**20, f"{peak:,} bytes"
    for a, b in zip(got, oracle_infer_series(model, x)):
        assert identical(a, b)


@pytest.mark.parametrize("count", [1, 2])
def test_every_span_runs_on_the_infer_buffer(monkeypatch, count):
    # 3 000 windows: two row blocks a pass, on the calling thread or a pool
    seen = []

    def recording(fn, spans, at_once, ahead):
        def run(span, worker):
            seen.append(np.getbufsize())
            return fn(span, worker)
        return map_blocks(run, spans, at_once, ahead)

    monkeypatch.setattr(model_module, "workers", lambda spans: min(count, spans))
    monkeypatch.setattr(model_module, "map_blocks", recording)
    model = perturbed_model((16, 8), window=6)
    x = np.random.default_rng(0).normal(size=3005)
    model.infer_series(x)
    model.infer(sliding_window_view(x, 6))
    assert seen == [model_module.INFER_BUFSIZE] * 4


def _caller_state():
    return np.getbufsize(), np.geterr()


@pytest.mark.parametrize("fault", [False, True], ids=["pass", "fault"])
def test_a_pass_leaves_the_callers_buffer_and_error_state(fault):
    model = perturbed_model((16, 8), window=6)
    if fault:
        model.enc_dense[1].W[0, 0] = np.nan
    x = np.random.default_rng(0).normal(size=3005)
    with np.errstate(over="raise", under="warn"):
        np.setbufsize(16)
        before = _caller_state()
        for run, arg in ((model.infer_series, x), (model.infer, sliding_window_view(x, 6))):
            if fault:
                with pytest.raises(NumericError, match="encoder"):
                    run(arg)
            else:
                run(arg)
            assert _caller_state() == before


@pytest.mark.parametrize("bufsize", [16, 8192])
def test_infer_series_matches_oracle_under_any_caller_buffer(bufsize):
    model = perturbed_model((128, 64, 32))
    x = np.random.default_rng(bufsize).normal(size=2500)
    with np.errstate():
        np.setbufsize(bufsize)
        got = model.infer_series(x)
    for a, b in zip(got, oracle_infer_series(model, x)):
        assert identical(a, b)


class TestErrors:
    def _X(self, rows=3000):
        return np.random.default_rng(0).normal(size=(rows, 6))

    def test_nan_encoder_weight(self):
        model = perturbed_model((16, 8), window=6)
        model.enc_dense[1].W[0, 0] = np.nan
        with pytest.raises(NumericError, match="encoder"):
            model.infer(self._X())

    def test_nan_decoder_weight(self):
        model = perturbed_model((16, 8), window=6)
        model.out_layer.W[2, 1] = np.nan
        with pytest.raises(NumericError, match="decoder"):
            model.infer(self._X())

    def test_encoder_fault_in_last_block_beats_decoder_fault(self):
        # encode then decode raise the encoder's error first; so must infer,
        # even though the decoder fails on every block and the encoder only
        # on the last
        model = perturbed_model((16, 8), window=6)
        model.out_layer.b[0] = np.inf
        X = self._X()
        X[-1, 0] = np.nan
        with pytest.raises(NumericError, match="encoder"):
            oracle_infer(model, X)
        with pytest.raises(NumericError, match="encoder"):
            model.infer(X)

    def test_wrong_window_width(self):
        with pytest.raises(ShapeError):
            perturbed_model((16, 8), window=6).infer(np.zeros((10, 7)))

    def test_wrong_previous_latents(self):
        model = perturbed_model((16, 8), window=6)
        with pytest.raises(ShapeError):
            model.infer(np.zeros((10, 6)), prev_z=np.zeros((9, model.config.latent)))


def _clean(model):
    spec = synth.SynthSpec(n=3000, spike_count=12, step_count=1,
                           step_min_separation=1000, seed=11)
    raw = synth.generate(spec).to_raw_series()
    stats = preprocess.NormStats(mean=float(raw.values.mean()),
                                 std=float(raw.values.std()))
    result = pipeline.clean_series(model, stats, raw,
                                   detector.DetectConfig(w_s=24, w_l=240),
                                   refiner.RefineConfig(iterations=4),
                                   postprocess.SmoothConfig())
    buf = io.StringIO()
    series_io.write_cleaned_csv(result.output, buf)
    return result, buf.getvalue()


def test_clean_is_byte_identical_with_oracle(monkeypatch):
    # 2 977 windows of 24 samples: two row blocks per pass
    model = Vae(ModelConfig(window=24, hidden=(16, 8), latent=4), seed=3)
    result, text = _clean(model)
    assert result.spike_mask.any() and len(result.refine_log) == 4
    monkeypatch.setattr(Vae, "infer_series", oracle_infer_series)
    expect, expect_text = _clean(model)
    assert text == expect_text
    assert np.array_equal(result.output.cleaned, expect.output.cleaned)
    assert np.array_equal(result.spike_mask, expect.spike_mask)
    assert np.array_equal(result.step_mask, expect.step_mask)
    assert result.segments == expect.segments
    assert result.refine_log == expect.refine_log
