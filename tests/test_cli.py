import json

import numpy as np
import pytest

from dartclean import cli, series_io, synth
from dartclean.cli import load_config, main, read_ground_truth
from dartclean.errors import ConfigError


def _write_config(tmp_path, name="cfg.json", **data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _synth_args(tmp_path, n=2500, seed=7, **synth_extra):
    out = tmp_path / "series.dart"
    cfg = _write_config(
        tmp_path,
        output=str(out),
        ground_truth=str(tmp_path / "truth.csv"),
        synth={"n": n, "seed": seed, **synth_extra},
    )
    return cfg, out


class TestLoadConfig:
    def test_defaults_match_published_constants(self):
        cfg = load_config(None)
        assert cfg["model"].window == 48
        assert cfg["model"].latent == 16
        assert cfg["refine"].iterations == 10
        assert cfg["train"].epochs == 1000
        assert cfg["detect"].kappa == 3.0
        assert cfg["detect"].tau_s == 3.0
        assert cfg["detect"].w_l == 480
        assert cfg["detect"].tau_l == 0.05
        assert cfg["detect"].hybrid_alpha == 0.7
        assert cfg["smooth"].window == 6

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = _write_config(tmp_path, bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_threads_key_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, threads=2, output=str(tmp_path / "s.dart"),
                            synth={"n": 200, "seed": 1})
        assert main(["synth", "--config", cfg]) == 2

    def test_unknown_section_key_rejected(self, tmp_path):
        path = _write_config(tmp_path, detect={"tau_q": 1.0})
        with pytest.raises(ConfigError, match="tau_q"):
            load_config(path)

    def test_set_overrides(self, tmp_path):
        path = _write_config(tmp_path, train={"epochs": 5})
        cfg = load_config(path, overrides=["train.epochs=9", "detect.kappa=2.5"])
        assert cfg["train"].epochs == 9
        assert cfg["detect"].kappa == 2.5

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides=["no-equals-sign"])

    def test_missing_config_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json")

    def test_seed_propagates_to_sections(self, tmp_path):
        path = _write_config(tmp_path, synth={"n": 100})
        cfg = load_config(path, seed=33)
        assert cfg["synth"].seed == 33
        assert cfg["train"].seed == 33


class TestCmdSynth:
    def test_deterministic_bytes(self, tmp_path):
        cfg, out = _synth_args(tmp_path)
        assert main(["synth", "--config", cfg]) == 0
        first = out.read_bytes()
        truth_first = (tmp_path / "truth.csv").read_bytes()
        assert main(["synth", "--config", cfg]) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "truth.csv").read_bytes() == truth_first

    def test_gap_sentinels(self, tmp_path):
        cfg, out = _synth_args(tmp_path, gap_count=2, seed=3)
        assert main(["synth", "--config", cfg]) == 0
        truth = read_ground_truth(tmp_path / "truth.csv")
        parsed = series_io.parse_dart_file(str(out))
        assert np.array_equal(parsed.flags == series_io.FLAG_MISSING, truth["gap"])
        assert truth["gap"].sum() >= 2

    def test_reparse_matches_generator(self, tmp_path):
        cfg, out = _synth_args(tmp_path, seed=21)
        main(["synth", "--config", cfg])
        parsed = series_io.parse_dart_file(str(out))
        truth = synth.generate(synth.SynthSpec(n=2500, seed=21))
        assert np.array_equal(parsed.values, truth.contaminated)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small end-to-end train run shared by the command tests."""
    tmp_path = tmp_path_factory.mktemp("cli_train")
    synth_cfg, dart = _synth_args(tmp_path, n=2500, seed=7, gap_count=1)
    main(["synth", "--config", synth_cfg])
    ck = tmp_path / "model.ckpt"
    train_cfg = _write_config(
        tmp_path, name="train.json",
        input=str(dart), checkpoint=str(ck),
        train_log=str(tmp_path / "train.csv"),
        model={"window": 24, "hidden": [32, 16], "latent": 8},
        train={"epochs": 3, "seed": 0, "base_lr": 1e-3, "t_warmup": 50},
    )
    assert main(["train", "--config", train_cfg]) == 0
    return {"dir": tmp_path, "dart": dart, "checkpoint": ck,
            "train_log": tmp_path / "train.csv", "train_cfg": train_cfg}


class TestCmdTrain:
    def test_log_rows_and_checkpoint(self, trained):
        lines = trained["train_log"].read_text().splitlines()
        assert lines[0].startswith("epoch,recon,kl,")
        assert len(lines) == 4  # header + 3 epochs
        model, stats = series_io.load_checkpoint(trained["checkpoint"])
        assert model.config.window == 24
        assert stats.std > 0

    def test_short_input_fails_with_data_exit_code(self, tmp_path):
        dart = tmp_path / "short.dart"
        series = series_io.RawSeries(
            timestamps=1640995200.0 + 900.0 * np.arange(10),
            values=np.linspace(0.0, 1.0, 10),
            flags=np.zeros(10, dtype=int),
        )
        series_io.emit_dart(series, dart)
        cfg = _write_config(tmp_path, input=str(dart),
                            checkpoint=str(tmp_path / "ck.json"))
        assert main(["train", "--config", cfg]) == 3

    def test_config_error_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, nonsense=True)
        assert main(["train", "--config", cfg]) == 2

    @pytest.mark.parametrize("override", [
        "model.hidden=[]", "model.hidden=[8,0]", "model.window=1", "model.latent=0",
        "model.bn_eps=0", "model.bn_momentum=1.5", "model.bn_momentum=-0.1",
    ])
    def test_model_out_of_range_is_config_error(self, tmp_path, capsys, override):
        cfg = _write_config(tmp_path, input=str(tmp_path / "series.dart"),
                            checkpoint=str(tmp_path / "ck.json"))
        assert main(["train", "--config", cfg, "--set", override]) == 2
        assert override.partition("=")[0] in capsys.readouterr().err


class TestCmdClean:
    def _clean_cfg(self, trained, suffix=""):
        tmp_path = trained["dir"]
        return _write_config(
            tmp_path, name=f"clean{suffix}.json",
            input=str(trained["dart"]), checkpoint=str(trained["checkpoint"]),
            output=str(tmp_path / f"cleaned{suffix}.csv"),
            detect={"w_s": 24, "w_l": 96, "merge_gap": 2},
            refine={"iterations": 3},
        ), tmp_path / f"cleaned{suffix}.csv"

    def test_outputs_exist_and_row_count(self, trained):
        cfg, out = self._clean_cfg(trained)
        assert main(["clean", "--config", cfg]) == 0
        doc = series_io.read_cleaned_csv(str(out))
        assert len(doc.raw) == 2500  # gap rows are kept, interpolated
        segments = json.loads((trained["dir"] / "cleaned.csv.segments.json").read_text())
        assert "segments" in segments
        iter_lines = (trained["dir"] / "cleaned.csv.iterations.csv").read_text().splitlines()
        assert len(iter_lines) == 4  # header + 3 iterations

    def test_byte_identical_rerun(self, trained):
        cfg, out = self._clean_cfg(trained, suffix="_b")
        assert main(["clean", "--config", cfg]) == 0
        first = out.read_bytes()
        seg_first = (trained["dir"] / "cleaned_b.csv.segments.json").read_bytes()
        assert main(["clean", "--config", cfg]) == 0
        assert out.read_bytes() == first
        assert (trained["dir"] / "cleaned_b.csv.segments.json").read_bytes() == seg_first

    def test_checkpoint_without_architecture_is_data_error(self, trained):
        tmp_path = trained["dir"]
        doc = json.loads(trained["checkpoint"].read_text())
        del doc["architecture"]
        ck = tmp_path / "no_arch.ckpt"
        ck.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path, name="noarch.json", input=str(trained["dart"]),
                            checkpoint=str(ck), output=str(tmp_path / "x.csv"))
        assert main(["clean", "--config", cfg]) == 3

    @pytest.mark.parametrize("key, value", [
        ("hidden", []), ("hidden", [32, 0]), ("window", 0), ("latent", -1),
        ("bn_eps", 0.0), ("bn_momentum", 2.0),
    ])
    def test_out_of_range_architecture_is_data_error(self, trained, capsys, key, value):
        tmp_path = trained["dir"]
        doc = json.loads(trained["checkpoint"].read_text())
        doc["architecture"][key] = value
        ck = tmp_path / "bad_arch.ckpt"
        ck.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path, name="badarch.json", input=str(trained["dart"]),
                            checkpoint=str(ck), output=str(tmp_path / "x.csv"))
        assert main(["clean", "--config", cfg]) == 3
        assert f"model.{key}" in capsys.readouterr().err

    def test_missing_checkpoint_is_error(self, trained):
        tmp_path = trained["dir"]
        cfg = _write_config(tmp_path, name="nock.json", input=str(trained["dart"]),
                            checkpoint=str(tmp_path / "nope.ckpt"),
                            output=str(tmp_path / "x.csv"))
        assert main(["clean", "--config", cfg]) != 0


class TestCmdEvalLatent:
    def test_eval_schema(self, trained):
        tmp_path = trained["dir"]
        clean_cfg, out = TestCmdClean()._clean_cfg(trained, suffix="_e")
        main(["clean", "--config", clean_cfg])
        cfg = _write_config(
            tmp_path, name="eval.json",
            input=str(out), ground_truth=str(tmp_path / "truth.csv"),
            output=str(tmp_path / "report.json"),
            detect={"w_s": 24, "w_l": 96},
        )
        assert main(["eval", "--config", cfg]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for block in ("pipeline", "baseline"):
            for key in ("mse", "temporal_consistency", "precision", "recall",
                        "f1_spike", "step_recall", "residual", "rate_of_change"):
                assert key in report[block], (block, key)

    def test_eval_f1_matches_library(self, trained):
        from dartclean import metrics
        tmp_path = trained["dir"]
        report = json.loads((tmp_path / "report.json").read_text())
        truth = read_ground_truth(tmp_path / "truth.csv")
        doc = series_io.read_cleaned_csv(str(tmp_path / "cleaned_e.csv"))
        expect = metrics.spike_f1(doc.spike.astype(bool),
                                  np.flatnonzero(truth["spike"]))
        assert report["pipeline"]["f1_spike"] == pytest.approx(expect["f1"])

    def test_latent_rows_and_labels(self, trained):
        tmp_path = trained["dir"]
        cfg = _write_config(
            tmp_path, name="latent.json",
            input=str(trained["dart"]), checkpoint=str(trained["checkpoint"]),
            output=str(tmp_path / "latent.csv"),
            detect={"w_s": 24, "w_l": 96},
        )
        assert main(["latent", "--config", cfg]) == 0
        lines = (tmp_path / "latent.csv").read_text().splitlines()
        assert lines[0] == "window_origin,pc1,pc2,is_anomalous"
        assert len(lines) == 1 + (2500 - 24 + 1)
        flags = {line.split(",")[3] for line in lines[1:]}
        assert flags <= {"0", "1"}


class TestMainErrors:
    def test_eval_without_ground_truth(self, tmp_path):
        cfg = _write_config(tmp_path, input=str(tmp_path / "x.csv"),
                            output=str(tmp_path / "y.json"))
        assert main(["eval", "--config", cfg]) == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
