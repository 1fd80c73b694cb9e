"""Golden SHA-256 digests of `dartclean clean` on the acceptance series.

Each case writes one acceptance series (spike seed 7 or step seed 21,
20 000 samples, the specs of ``tests/test_acceptance.py``) as DART text,
saves an untrained seeded ``Vae(ModelConfig(hidden=(128, 64, 32)), seed=0)``
with the series' own normalisation statistics, and runs
``dartclean clean`` on it.  The cleaned CSV, segments JSON and iteration
log must match the digests below to the byte, so a change to the model
forward, the detectors, refinement or post-processing cannot drift by an
ulp unseen.

The digests were computed with NumPy 2.4.6 on the scipy-openblas64 build
of OpenBLAS 0.3.31 (DYNAMIC_ARCH, Haswell kernels), x86-64.  Another BLAS
build or CPU kernel may round the matrix products differently; on such a
machine these digests are not expected to hold and must be recomputed
from a known-good commit.

``dartclean eval`` of the spike case's cleaned CSV against the series'
ground truth is pinned too, so the rolling-median baseline it scores
beside the pipeline is checked byte for byte.

``dartclean synth`` is pinned the same way: the DART text and the
ground-truth CSV it writes for the acceptance spike spec and for a
gapped, drifting spec (the benchmark's station-year spec cut to 4 000
samples and one step, so 9999 sentinel rows are written).  Those digests
were computed with the row-by-row text writer that preceded the
column-at-a-time one; they involve no matrix product, so they do not
depend on the BLAS build.

The checkpoint format is pinned by the digest of the file
``save_checkpoint`` writes for the seeded 128/64/32 model with fixed
normalisation statistics, so a change to the format has to change this
digest on purpose.  It involves no matrix product either.
"""

import hashlib
import json

import pytest

from dartclean import series_io, synth
from dartclean.cli import main
from dartclean.model import ModelConfig, Vae
from dartclean.preprocess import NormStats, fill_gaps, zscore_normalize

SPECS = {
    "spike": synth.SynthSpec(n=20000, cadence=900.0, noise_sigma=0.05,
                             spike_count=40, seed=7),
    "step": synth.SynthSpec(n=20000, cadence=900.0, noise_sigma=0.05,
                            tides=((0.3, 43200.0, 0.0), (0.15, 21600.0, 1.3)),
                            spike_count=12, step_count=3,
                            step_mag_range=(0.1, 0.17), seed=21),
}

SYNTH_SPECS = {
    "spike": dict(n=20000, cadence=900.0, noise_sigma=0.05, spike_count=40, seed=7),
    "gapped-drift": dict(n=4000, cadence=900.0, noise_sigma=0.05,
                         tides=[[0.3, 43200.0, 0.0], [0.15, 21600.0, 1.3]],
                         spike_count=24, step_count=1, step_mag_range=[0.1, 0.2],
                         drift="linear", drift_rate=3e-6, gap_count=12,
                         gap_len_range=[2, 8], seed=365),
}

SYNTH_GOLDEN = {
    "spike": {
        "series.dart":
            "7e8c01f21e4038c249aafb0742a36eb16fb0ba97f07c8c6c5cd4037b766b3fca",
        "truth.csv":
            "0f675b174b386b01c191eb4e92493744a6f25688fccb64808f5cee523b8ac399",
    },
    "gapped-drift": {
        "series.dart":
            "f645b0857393d3e07465a87ca852f90f07e246ff69abafb25e45945c30bca2ac",
        "truth.csv":
            "fe198e60a338f2d834e4a5470a88b4318fbb99af3730f7fc266e1c1eab4b5635",
    },
}

GOLDEN = {
    "spike": {
        "cleaned.csv":
            "b76ad9e3a25b075e2e085977112cb9896b366e4390cfa77fa26f77d9b00a31ed",
        "segments.json":
            "59f1247d8d21794bcf63de38f5c64e7a03eee7f77948c67a56a949cbf4957705",
        "iterations.csv":
            "fd23db41c0a0375fafc50725783eb5a8c0c39cebccd9b74f333189a88d7bb1c7",
    },
    "step": {
        "cleaned.csv":
            "6bf3002573bc62dc22da2e35bddfe755b0ad837eadf4bc8eca7e4909f173ddf9",
        "segments.json":
            "b8abad42d36fd9d6c0ce5e7a26b8a2dda2329b822cfcb29515969afb090e01b5",
        "iterations.csv":
            "23ff627306c07a5d8195ca07caec412cd1516c3509786388e92098637c2bd696",
    },
}

EVAL_GOLDEN = "e87505ad61d81733a5354124aef42b23dadf8ededd0673176acc9c5570c65864"

# format version 3: each array as the base64 of its little-endian float64 bytes
CHECKPOINT_GOLDEN = "1120a0f117ed4cc1ac2d58bdaf5bdbd5946dde44b51d0058e5e7432f1d697f6a"


def clean_digests(tmp_path, spec) -> dict:
    raw = synth.generate(spec).to_raw_series()
    series_io.emit_dart(raw, tmp_path / "series.dart")
    model = Vae(ModelConfig(hidden=(128, 64, 32)), seed=0)
    stats = zscore_normalize(fill_gaps(raw)).stats
    series_io.save_checkpoint(model, stats, tmp_path / "model.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input": str(tmp_path / "series.dart"),
        "checkpoint": str(tmp_path / "model.json"),
        "output": str(tmp_path / "cleaned.csv"),
        "segments": str(tmp_path / "segments.json"),
        "iteration_log": str(tmp_path / "iterations.csv"),
    }))
    assert main(["clean", "--config", str(cfg)]) == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN["spike"]}


@pytest.mark.parametrize("series", sorted(SPECS))
def test_clean_output_digests(tmp_path, series):
    assert clean_digests(tmp_path, SPECS[series]) == GOLDEN[series]


def test_eval_output_digest(tmp_path):
    spec = SPECS["spike"]
    assert clean_digests(tmp_path, spec) == GOLDEN["spike"]
    series_io.write_ground_truth(synth.generate(spec), spec, tmp_path / "truth.csv")
    cfg = tmp_path / "eval.cfg.json"
    cfg.write_text(json.dumps({"input": str(tmp_path / "cleaned.csv"),
                               "ground_truth": str(tmp_path / "truth.csv"),
                               "output": str(tmp_path / "eval.json")}))
    assert main(["eval", "--config", str(cfg)]) == 0
    assert hashlib.sha256((tmp_path / "eval.json").read_bytes()).hexdigest() == EVAL_GOLDEN


@pytest.mark.parametrize("spec", sorted(SYNTH_SPECS))
def test_synth_output_digests(tmp_path, spec):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": str(tmp_path / "series.dart"),
                               "ground_truth": str(tmp_path / "truth.csv"),
                               "synth": SYNTH_SPECS[spec]}))
    assert main(["synth", "--config", str(cfg)]) == 0
    if spec == "gapped-drift":
        assert "1 9999.000\n" in (tmp_path / "series.dart").read_text()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in SYNTH_GOLDEN[spec]}
    assert digests == SYNTH_GOLDEN[spec]


def test_checkpoint_digest(tmp_path):
    path = tmp_path / "model.json"
    series_io.save_checkpoint(Vae(ModelConfig(hidden=(128, 64, 32)), seed=0),
                              NormStats(mean=2584.25, std=0.0625), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_GOLDEN
