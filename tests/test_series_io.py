import base64
import io
import json

import numpy as np
import pytest

from dartclean import series_io, synth
from dartclean.errors import DataError, ParseError, ShapeError
from dartclean.model import ModelConfig, Vae
from dartclean.preprocess import NormStats
from dartclean.series_io import (
    FLAG_MISSING,
    FLAG_VALID,
    CleanedOutput,
    parse_dart_file,
    emit_dart,
    load_checkpoint,
    read_cleaned_csv,
    save_checkpoint,
    write_cleaned_csv,
)
from tests.conftest import as_version_2, tiny_model, traced_peak


SAMPLE = (
    "#YY  MM DD hh mm ss T   HEIGHT\n"
    "2022 01 01 00 00 00 1 2584.234\n"
    "2022 01 01 00 15 00 1 2584.301\n"
)


class TestParseDartFile:
    def test_two_valid_rows(self):
        series = parse_dart_file(io.StringIO(SAMPLE))
        assert len(series) == 2
        assert np.allclose(series.values, [2584.234, 2584.301])
        assert list(series.flags) == [FLAG_VALID, FLAG_VALID]
        assert series.timestamps[1] - series.timestamps[0] == 900.0

    def test_sentinel_marks_missing(self):
        text = SAMPLE + "2022 01 01 00 30 00 1 9999.000\n"
        series = parse_dart_file(io.StringIO(text))
        assert series.flags[2] == FLAG_MISSING
        # sentinel without decimals too
        text2 = SAMPLE.replace("2584.301", "9999")
        assert parse_dart_file(io.StringIO(text2)).flags[1] == FLAG_MISSING

    def test_wrong_column_count_reports_line(self):
        with pytest.raises(ParseError, match="columns"):
            parse_dart_file(io.StringIO(SAMPLE + "2022 01 01 00 30 00 1\n"))

    def test_unparseable_number_reports_line(self):
        with pytest.raises(ParseError):
            parse_dart_file(io.StringIO(SAMPLE + "2022 01 01 00 30 00 1 not-a-number\n"))

    def test_non_monotone_timestamps_rejected(self):
        text = SAMPLE + "2022 01 01 00 15 00 1 2584.5\n"
        with pytest.raises(DataError, match="increasing"):
            parse_dart_file(io.StringIO(text))

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            parse_dart_file(io.StringIO("# header only\n"))

    def test_path_and_stream_inputs(self, tmp_path):
        path = tmp_path / "series.dart"
        path.write_text(SAMPLE)
        from_path = parse_dart_file(path)
        from_obj = parse_dart_file(io.StringIO(SAMPLE))
        assert np.array_equal(from_path.values, from_obj.values)
        assert np.array_equal(parse_dart_file(str(path)).timestamps, from_obj.timestamps)

    def test_one_row_text_stream(self):
        series = parse_dart_file(io.StringIO("2022 01 01 00 00 00 1 2584.234"))
        assert len(series) == 1 and series.values[0] == 2584.234

    def test_text_is_not_taken_for_input(self):
        # a string is always a path, even one holding DART text
        with pytest.raises(DataError, match="cannot read"):
            parse_dart_file(SAMPLE)

    def test_crlf_accepted(self):
        series = parse_dart_file(io.StringIO(SAMPLE.replace("\n", "\r\n")))
        assert len(series) == 2

    def test_emit_parse_round_trip_synth(self):
        truth = synth.generate(synth.SynthSpec(n=1000, spike_count=3, gap_count=2,
                                               seed=11))
        raw = truth.to_raw_series()
        text = io.StringIO()
        emit_dart(raw, text)
        parsed = parse_dart_file(io.StringIO(text.getvalue()))
        valid = raw.flags == FLAG_VALID
        assert np.array_equal(parsed.flags, raw.flags)
        # bitwise equality for every valid sample
        assert np.array_equal(parsed.values[valid], raw.values[valid])
        assert np.array_equal(parsed.timestamps, raw.timestamps)


class TestCleanedCsv:
    def _one_sample(self, raw, cleaned, spike=0, step=0):
        return CleanedOutput(
            timestamps=np.array([1640995200.0]),
            raw=np.array([raw]), cleaned=np.array([cleaned]),
            spike=np.array([spike]), step=np.array([step]),
        )

    def test_identity_row(self):
        buf = io.StringIO()
        write_cleaned_csv(self._one_sample(2.0, 2.0), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == series_io.CSV_HEADER
        assert lines[1].endswith(",2.000000,2.000000,0,0,0.000000")

    def test_spike_row_residual(self):
        buf = io.StringIO()
        write_cleaned_csv(self._one_sample(4.5, 2.0, spike=1), buf)
        assert buf.getvalue().splitlines()[1].endswith(",1,0,2.500000")

    def test_round_trip_500_rows(self, rng):
        n = 500
        out = CleanedOutput(
            timestamps=1640995200.0 + 900.0 * np.arange(n),
            raw=rng.normal(2584.0, 0.3, n),
            cleaned=rng.normal(2584.0, 0.3, n),
            spike=rng.integers(0, 2, n),
            step=rng.integers(0, 2, n),
        )
        buf = io.StringIO()
        write_cleaned_csv(out, buf)
        back = read_cleaned_csv(io.StringIO(buf.getvalue()))
        assert np.allclose(back.raw, out.raw, atol=1e-6)
        assert np.allclose(back.cleaned, out.cleaned, atol=1e-6)
        assert np.allclose(back.residual, out.residual, atol=2e-6)
        assert np.array_equal(back.spike, out.spike)
        assert np.array_equal(back.step, out.step)
        assert np.array_equal(back.timestamps, out.timestamps)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            CleanedOutput(timestamps=np.arange(3), raw=np.zeros(3),
                          cleaned=np.zeros(2), spike=np.zeros(3), step=np.zeros(3))

    def test_residual_is_raw_minus_cleaned(self):
        out = self._one_sample(5.0, 3.25)
        assert out.residual[0] == 5.0 - 3.25


class TestCheckpoint:
    def test_round_trip_parameters(self, tmp_path):
        model = tiny_model(seed=3)
        stats = NormStats(mean=2584.1, std=0.37)
        path = tmp_path / "ck.json"
        save_checkpoint(model, stats, path)
        loaded, loaded_stats = load_checkpoint(path)
        for name, arr in model.state.items():
            other = loaded.state[name]
            denom = np.maximum(np.abs(arr), 1e-300)
            assert np.all(np.abs(other - arr) / denom <= 1e-9), name
        assert loaded_stats.mean == stats.mean
        assert loaded_stats.std == stats.std
        assert loaded.config == model.config

    def test_round_trip_non_default_config(self, tmp_path, rng):
        model = tiny_model(seed=8, bn_eps=0.5, bn_momentum=0.7, beta0=0.6,
                           conf_decay=0.3, skip_alpha_init=0.5)
        model.loss_and_grads(rng.normal(size=(16, 6)), step=0, rng=np.random.default_rng(2))
        path = tmp_path / "ck.json"
        save_checkpoint(model, NormStats(0.0, 1.0), path)
        loaded, _ = load_checkpoint(path)
        assert loaded.config == model.config
        x = rng.normal(size=(10, 6))
        for got, expect in zip(loaded.infer(x), model.infer(x)):
            assert np.array_equal(got, expect)

    def test_version_1_file_loads_with_defaults(self, tmp_path):
        import json
        model = tiny_model(seed=3)
        path = tmp_path / "ck.json"
        save_checkpoint(model, NormStats(0.0, 1.0), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 1
        doc["architecture"] = {"window": 6, "hidden": [5], "latent": 4}
        path.write_text(json.dumps(doc))
        loaded, _ = load_checkpoint(path)
        assert loaded.config == model.config

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        doc = _saved(tiny_model(), path, version=2)
        mu = np.asarray(doc["params"]["mu.W"])
        doc["params"]["mu.W"] = mu[:, :-1].tolist()  # narrow the mu-head
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeError, match="mu.W"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected_version_3(self, tmp_path):
        path = tmp_path / "ck.json"
        doc = _saved(tiny_model(), path)
        doc["params"]["mu.W"]["shape"][1] -= 1  # checked before the payload is decoded
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeError, match="mu.W"):
            load_checkpoint(path)

    @staticmethod
    def _huge_architecture(tmp_path, version):
        # a 48-sample model's arrays under an architecture that claims
        # 200 000: building that model first would draw two 16 x 200 000
        # weight matrices (25.6 MB each) before any shape was checked
        path = tmp_path / "ck.json"
        doc = _saved(tiny_model(window=48, hidden=(16,)), path, version=version)
        doc["architecture"]["window"] = 200_000
        path.write_text(json.dumps(doc))

        def load():
            with pytest.raises(DataError, match="enc0.W"):
                load_checkpoint(path)

        assert traced_peak(load)[1] < 4 * 2**20

    def test_shapes_checked_before_the_model_is_built(self, tmp_path):
        self._huge_architecture(tmp_path, version=2)

    def test_shapes_checked_before_the_model_is_built_version_3(self, tmp_path):
        self._huge_architecture(tmp_path, version=3)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import json
        model = tiny_model()
        path = tmp_path / "ck.json"
        save_checkpoint(model, NormStats(0.0, 1.0), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, name, version", [
        (lambda doc: doc.pop("architecture"), "architecture", 3),
        (lambda doc: doc.update(architecture=[6, [5], 4]), "architecture", 3),
        (lambda doc: doc["architecture"].update(depth=3), "depth", 3),
        (lambda doc: doc["architecture"].update(latent="four"), "latent", 3),
        (lambda doc: doc.update(params=None), "params", 3),
        (lambda doc: doc["params"].update({"out.b": "zero"}), "out.b", 2),
        (lambda doc: doc["params"].update({"out.b": "zero"}), "out.b", 3),
        (lambda doc: doc.pop("norm_stats"), "norm_stats", 3),
        (lambda doc: doc["norm_stats"].pop("std"), "norm_stats", 3),
    ], ids=["no-architecture", "architecture-list", "unknown-key", "bad-latent",
            "params-null", "params-text", "params-text-version-3", "no-norm-stats", "no-std"])
    def test_malformed_document_names_key(self, tmp_path, edit, name, version):
        path = tmp_path / "ck.json"
        doc = _saved(tiny_model(), path, version=version)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=name):
            load_checkpoint(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(DataError, match="object"):
            load_checkpoint(path)

    def test_corrupted_number_names_array(self, tmp_path):
        path = tmp_path / "ck.json"
        doc = _saved(tiny_model(), path, version=2)
        doc["params"]["out.b"][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="out.b"):
            load_checkpoint(path)

    def test_corrupted_number_names_array_version_3(self, tmp_path):
        path = tmp_path / "ck.json"
        doc = _saved(tiny_model(), path)
        doc["params"]["out.b"]["data"] = base64.b64encode(
            np.array([np.nan, 0, 0, 0, 0, 0]).tobytes()).decode()
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="corrupted numbers in array 'out.b'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("hidden", [(128, 64, 32), (512, 256, 128)])
    def test_version_3_round_trip_is_bit_exact(self, tmp_path, hidden):
        # every array loads with the bytes it was saved with, from the
        # version-3 file and from the same model's version-2 document
        model = Vae(ModelConfig(hidden=hidden), seed=5)
        model.beta[...] = 0.1  # one scalar with an inexact decimal
        path = tmp_path / "ck.json"
        doc = _saved(model, path)
        assert doc["format_version"] == 3
        loaded, _ = load_checkpoint(path)
        path.write_text(json.dumps(as_version_2(doc)))
        from_version_2, _ = load_checkpoint(path)
        for name, arr in model.state.items():
            assert loaded.state[name].tobytes() == arr.tobytes(), name
            assert from_version_2.state[name].tobytes() == arr.tobytes(), name


def _saved(model, path, version=3) -> dict:
    """The document ``save_checkpoint`` writes for ``model`` (as version 2
    stored it when ``version`` is 2)."""
    save_checkpoint(model, NormStats(0.0, 1.0), path)
    doc = json.loads(path.read_text())
    return as_version_2(doc) if version == 2 else doc
