import base64
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dartclean import cli, series_io, synth, trainer
from dartclean.cli import _method_metrics, load_config, main, read_ground_truth
from dartclean.errors import (
    ConfigError,
    DartCleanError,
    DataError,
    NumericError,
    ParseError,
    ShapeError,
)
from tests.conftest import as_version_2, traced_peak


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

    def test_early_exit_key_rejected(self, tmp_path, capsys):
        # folded into refine.tolerance: refinement stops once the mean change
        # falls below it
        cfg = _write_config(tmp_path, refine={"early_exit": True},
                            input=str(tmp_path / "series.dart"),
                            checkpoint=str(tmp_path / "ck.json"),
                            output=str(tmp_path / "cleaned.csv"))
        assert main(["clean", "--config", cfg]) == 2
        assert "early_exit" in capsys.readouterr().err

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

    @pytest.mark.parametrize("doc", ["5", "[1, 2]", '"cfg"', "null", '{"output": ["a"]}',
                                     '{"input": 3}', '{"checkpoint": null}', '{"verbosity": 1.5}'])
    def test_top_level_is_typed(self, tmp_path, capsys, doc):
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        assert main(["synth", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "object" in err if doc[0] != "{" else json.loads(doc).popitem()[0] in err

    def test_infer_block_width_covers_hidden_and_latent(self):
        # an infer worker's two buffers are as wide as the window, both
        # latent heads or a hidden layer; a layer this wide sets the 76-row
        # floor, so blocks of up to 151 rows, and two such buffers 48 and
        # 500 000 float64 wide fit the budget, 48 and 8 000 000 (or
        # 8 000 000 latent-head and 512 hidden) do not
        assert load_config(None, overrides=["model.hidden=[500000]"])["model"].hidden == (500000,)
        for override, key in [("model.hidden=[8000000]", "model.hidden"),
                              ("model.latent=4000000", "model.latent")]:
            with pytest.raises(ConfigError, match=f"^{key} needs .* for an infer block"):
                load_config(None, overrides=[override])

    def test_verbosity_must_be_an_integer(self, capsys):
        assert main(["synth", "--set", "verbosity=abc"]) == 2
        assert "verbosity must be an integer" in capsys.readouterr().err

    def test_seed_propagates_to_sections(self, tmp_path):
        path = _write_config(tmp_path, synth={"n": 100})
        cfg = load_config(path, seed=33)
        assert cfg["synth"].seed == 33
        assert cfg["train"].seed == 33

    @pytest.mark.parametrize("command, args, key", [
        ("synth", ["--seed", "-2"], "seed"), ("synth", ["--set", "seed=-1"], "seed"),
        ("train", ["--set", "train.seed=-2"], "train.seed"),
        ("synth", ["--set", "synth.seed=-1"], "synth.seed"),
    ])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command, args, key):
        # the generators' seeds take no negative value
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, input=str(tmp_path / "series.dart"), output=str(out),
                            checkpoint=str(tmp_path / "ck.json"), synth={"n": 300})
        assert main([command, "--config", cfg, *args]) == 2
        assert f"{key} must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "detect.w_s=2", "detect.w_l=2", "detect.tau_s=0", "detect.tau_l=-0.1",
        "detect.kappa=-1", "detect.hybrid_alpha=1.5", "detect.merge_gap=-1",
        "refine.iterations=0", "refine.blend_alpha=2", "refine.threshold_decay=0",
        "smooth.window=1", "smooth.sigma=-1", "synth.n=1", "synth.drift=bogus",
    ])
    def test_section_out_of_range_names_its_key(self, capsys, override):
        assert main(["synth", "--set", override]) == 2
        assert f"{override.partition('=')[0]} must be" in capsys.readouterr().err


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

    @pytest.mark.parametrize("cadence", ["Infinity", "1e12", "0", "-900", "1e-7", "0.5"])
    def test_cadence_out_of_range_is_config_error(self, tmp_path, capsys, cadence):
        cfg, out = _synth_args(tmp_path)
        assert main(["synth", "--config", cfg, "--set", f"synth.cadence={cadence}"]) == 2
        assert "synth.cadence" in capsys.readouterr().err
        assert not out.exists()

    def test_cadence_that_just_fits(self, tmp_path, capsys):
        # two samples whose second stamp is the last second a DART file can hold
        cadence = series_io.LAST_SECOND - synth.START
        cfg, out = _synth_args(tmp_path, n=2)
        assert main(["synth", "--config", cfg, "--set", f"synth.cadence={cadence}"]) == 0
        assert out.read_text().splitlines()[-1].startswith("9999 12 31 23 59 59 1 ")
        assert np.array_equal(series_io.parse_dart_file(out).timestamps,
                              [synth.START, series_io.LAST_SECOND])
        assert main(["synth", "--config", cfg, "--set", f"synth.cadence={cadence + 1}"]) == 2
        assert "synth.cadence" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "synth.noise_sigma=-1", "synth.noise_sigma=Infinity",
        "synth.tides=[[1,0,0]]", "synth.tides=[[1,2]]", "synth.tides=[[1,Infinity,0]]",
        "synth.spike_amp_range=[Infinity,1]", "synth.step_mag_range=[1,2,3]",
        "synth.step_mag_range=[1,0.5]",
        "synth.spike_width_range=[3,1]", "synth.gap_len_range=[1]", "synth.gap_len_range=[0,0]",
        "synth.drift_rate=Infinity", "synth.drift_scale=-Infinity", "synth.base_level=Infinity",
        "synth.spike_count=-1", "synth.step_count=-1", "synth.gap_count=-1",
        "synth.step_min_separation=0",
    ])
    def test_synth_setting_out_of_range_is_config_error(self, tmp_path, capsys, override):
        # every setting is drawn on: spikes, a step, a gap and an exponential drift
        cfg, out = _synth_args(tmp_path, n=600, spike_count=2, step_count=1, gap_count=1,
                               drift="exponential", drift_rate=1e-3, drift_scale=0.1)
        assert main(["synth", "--config", cfg]) == 0
        out.unlink()
        assert main(["synth", "--config", cfg, "--set", override]) == 2
        assert override.partition("=")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, n, margin", [("spike_count", 6, 3), ("gap_count", 8, 5),
                                                 ("step_count", 2, 1)])
    def test_series_too_short_for_its_events_is_config_error(self, tmp_path, capsys,
                                                             kind, n, margin):
        # each start is drawn in [margin, n - margin): the margin is the
        # widest spike (3) or gap (5), or 1 for a step
        cfg, out = _synth_args(tmp_path, n=n, **{kind: 1})
        assert main(["synth", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: synth.n must be an integer > {2 * margin}")
        assert not out.exists()
        assert main(["synth", "--config", cfg, "--set", f"synth.n={2 * margin + 1}"]) == 0

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

    def test_train_log_defaults_beside_the_checkpoint(self, trained, tmp_path):
        # train writes no output, so a config without one trains
        ck = tmp_path / "model.ckpt"
        cfg = _write_config(tmp_path, input=str(trained["dart"]), checkpoint=str(ck),
                            model={"window": 24, "hidden": [8], "latent": 4},
                            train={"epochs": 1}, verbosity=0)
        assert main(["train", "--config", cfg]) == 0
        assert (tmp_path / "model.ckpt.train.csv").read_text().startswith("epoch,")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfg.json", "model.ckpt", "model.ckpt.train.csv"]

    def test_short_input_fails_with_data_exit_code(self, tmp_path):
        dart = tmp_path / "short.dart"
        series = series_io.RawSeries(
            timestamps=1640995200.0 + 900.0 * np.arange(10),
            values=np.linspace(0.0, 1.0, 10),
            flags=np.zeros(10, dtype=int),
        )
        dart.write_text("".join(series_io.emit_dart(series)))
        cfg = _write_config(tmp_path, input=str(dart),
                            checkpoint=str(tmp_path / "ck.json"))
        assert main(["train", "--config", cfg]) == 3

    @pytest.mark.parametrize("rows", [10, 47])
    def test_input_shorter_than_the_window_is_data_error(self, tmp_path, capsys, rows):
        dart = tmp_path / "short.dart"
        dart.write_text("".join(series_io.emit_dart(series_io.RawSeries(
            timestamps=1640995200.0 + 900.0 * np.arange(rows),
            values=np.linspace(0.0, 1.0, rows), flags=np.zeros(rows, dtype=int)))))
        checkpoint = tmp_path / "ck.json"
        cfg = _write_config(tmp_path, input=str(dart), checkpoint=str(checkpoint))
        assert main(["train", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            f"data error: series of length {rows} is shorter than window 48\n")
        assert not checkpoint.exists()

    def test_accumulation_past_one_epoch_is_config_error(self, tmp_path, capsys):
        # 3 000 samples make 2 953 windows, 2 658 of them for training: 21
        # batches of 128, so 1 000 accumulation steps would never step
        cfg, dart = _synth_args(tmp_path, n=3000)
        assert main(["synth", "--config", cfg]) == 0
        checkpoint = tmp_path / "ck.json"
        cfg = _write_config(tmp_path, name="train.json", input=str(dart),
                            checkpoint=str(checkpoint))
        assert main(["train", "--config", cfg, "--set", "train.accumulation_steps=1000"]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: train.accumulation_steps must be at most the 21 "
                       "batches of one epoch, got 1000\n")
        assert not checkpoint.exists()

    def test_training_holds_no_window_matrix(self, tmp_path):
        # the 20 000-sample acceptance spike series has 19 953 windows of 48
        # samples: 7.3 MiB as one float64 matrix, which training never builds
        cfg, dart = _synth_args(tmp_path, n=20000, cadence=900.0, noise_sigma=0.05,
                                spike_count=40)
        assert main(["synth", "--config", cfg]) == 0
        cfg = _write_config(tmp_path, name="train.json", input=str(dart),
                            checkpoint=str(tmp_path / "ck.json"),
                            model={"hidden": [8], "latent": 2},
                            train={"epochs": 1}, verbosity=0)
        code, peak = traced_peak(main, ["train", "--config", cfg])
        assert code == 0
        assert peak < 19953 * 48 * 8, f"{peak / 2**20:.2f} MiB"

    def test_diverging_run_exits_4_and_writes_its_log_alone(self, tmp_path, capsys):
        # a global skip of 1e160 makes every reconstruction error overflow,
        # so the first three batches have a non-finite loss
        cfg, dart = _synth_args(tmp_path, n=1500)
        assert main(["synth", "--config", cfg]) == 0
        checkpoint, log = tmp_path / "ck.json", tmp_path / "train.csv"
        cfg = _write_config(tmp_path, name="train.json", input=str(dart),
                            checkpoint=str(checkpoint), train_log=str(log),
                            model={"hidden": [16, 8, 4]})
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--set", "model.beta0=1e160"]) == 4
        assert capsys.readouterr().err == (
            "numeric error: non-finite loss for 3 consecutive batches\n")
        assert log.read_text() == trainer.LOG_HEADER + "\n"
        assert not checkpoint.exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, nonsense=True)
        assert main(["train", "--config", cfg]) == 2

    @pytest.mark.parametrize("override", [
        "model.hidden=[]", "model.hidden=[8,0]", "model.window=1", "model.latent=0",
        "model.bn_eps=0", "model.bn_eps=Infinity", "model.bn_momentum=1.5",
        "model.bn_momentum=-0.1",
        "model.skip_alpha_init=Infinity", "model.skip_alpha_init=-Infinity",
        "model.beta0=Infinity", "model.conf_decay=-Infinity",
    ])
    def test_model_out_of_range_is_config_error(self, tmp_path, capsys, override):
        cfg = _write_config(tmp_path, input=str(tmp_path / "series.dart"),
                            checkpoint=str(tmp_path / "ck.json"))
        assert main(["train", "--config", cfg, "--set", override]) == 2
        assert override.partition("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "train.epochs=0", "train.batch_size=0", "train.accumulation_steps=0",
        "train.val_fraction=0.5", "train.patience=0", "train.decay_steps=0",
        "train.decay_steps=-1", "train.max_epochs=0", "train.t_anneal=-1", "train.t_warmup=-1",
        "train.seed=-1", "train.base_lr=0", "train.base_lr=-1", "train.base_lr=Infinity",
        "train.clip_tau=0", "train.clip_tau=-1", "train.weight_decay=-1e-5",
        "train.weight_decay=Infinity", "train.lam_temporal=-0.1", "train.lam_mean=-0.1",
        "train.lam_mean=Infinity", "train.schedule=bogus",
    ])
    def test_train_out_of_range_is_config_error(self, tmp_path, capsys, override):
        # checked with the config, before the (missing) input is read
        cfg = _write_config(tmp_path, input=str(tmp_path / "series.dart"),
                            checkpoint=str(tmp_path / "ck.json"))
        assert main(["train", "--config", cfg, "--set", override]) == 2
        assert override.partition("=")[0] in capsys.readouterr().err


    @pytest.mark.parametrize("override", [
        "model.window=abc", "detect.w_s=abc", "refine.iterations=x", "model.hidden=5",
    ])
    def test_wrong_typed_value_is_config_error(self, tmp_path, capsys, override):
        cfg = _write_config(tmp_path, input=str(tmp_path / "series.dart"),
                            checkpoint=str(tmp_path / "ck.json"),
                            output=str(tmp_path / "cleaned.csv"))
        assert main(["clean", "--config", cfg, "--set", override]) == 2
        assert override.partition("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        'model.hidden=[8,"a"]', "refine.keep_history=1", "detect.tau_s=true",
        "seed=x", "model=5",
        # a NaN passes every range check, so the type check rejects it
        "smooth.sigma=NaN", "detect.kappa=NaN", "detect.tau_s=NaN", "synth.cadence=NaN",
        "train.base_lr=NaN",
    ])
    def test_wrong_typed_item_or_section_is_config_error(self, capsys, override):
        assert main(["clean", "--set", override]) == 2
        assert override.partition("=")[0] in capsys.readouterr().err

    def test_typed_values_take_their_key_type(self):
        cfg = load_config(None, ["train.base_lr=1", "synth.tides=[[0.3,43200,0]]",
                                 "model.hidden=[32,16]", "train.epochs=3",
                                 "train.clip_tau=Infinity"])
        assert cfg["train"].base_lr == 1.0 and isinstance(cfg["train"].base_lr, float)
        assert cfg["train"].clip_tau == np.inf   # no clipping
        assert cfg["synth"].tides == ((0.3, 43200.0, 0.0),)
        assert all(isinstance(v, float) for v in cfg["synth"].tides[0])
        assert cfg["model"].hidden == (32, 16)
        assert isinstance(cfg["train"].epochs, int)

    def test_integer_for_a_float_key(self, trained, tmp_path):
        # an int for skip_alpha_init made the skip scales int64, which Adam's
        # in-place update could not take; 1 and 1.0 now train the same model
        checkpoints = []
        for value in ("1", "1.0"):
            ck = tmp_path / f"ck_{value}.json"
            cfg = _write_config(tmp_path, name=f"train_{value}.json", input=str(trained["dart"]),
                                checkpoint=str(ck), train_log=str(tmp_path / "log.csv"),
                                model={"window": 24, "hidden": [8], "latent": 4},
                                train={"epochs": 1}, verbosity=0)
            assert main(["train", "--config", cfg, "--set",
                         f"model.skip_alpha_init={value}"]) == 0
            checkpoints.append(ck.read_bytes())
        assert checkpoints[0] == checkpoints[1]
        assert json.loads(checkpoints[0])["architecture"]["skip_alpha_init"] == 1.0


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

    def test_nothing_flagged_writes_every_output(self, tmp_path):
        """A noise-free tide that detection leaves unflagged (with this model
        seed) still cleans: the series is written whole, with no segments
        and an iteration log that is its header alone."""
        synth_cfg, dart = _synth_args(tmp_path, n=200, noise_sigma=0.0)
        assert main(["synth", "--config", synth_cfg]) == 0
        ck = tmp_path / "model.ckpt"
        train_cfg = _write_config(
            tmp_path, name="train.json", input=str(dart), checkpoint=str(ck), seed=2,
            train_log=str(tmp_path / "train.csv"),
            model={"window": 16, "hidden": [16], "latent": 8}, train={"epochs": 2})
        assert main(["train", "--config", train_cfg]) == 0
        out = tmp_path / "cleaned.csv"
        clean_cfg = _write_config(
            tmp_path, name="clean.json", input=str(dart), checkpoint=str(ck),
            output=str(out), detect={"w_s": 16, "w_l": 96})
        assert main(["clean", "--config", clean_cfg]) == 0
        assert len(series_io.read_cleaned_csv(str(out)).raw) == 200
        segments = json.loads((tmp_path / "cleaned.csv.segments.json").read_text())
        assert segments["segments"] == []
        assert ((tmp_path / "cleaned.csv.iterations.csv").read_text()
                == "iteration,mean_change,masked_count,max_correction\n")

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
        ("bn_eps", 0.0), ("bn_eps", float("inf")), ("bn_momentum", 2.0),
        # a NaN passes every range check, so the type check rejects it
        ("skip_alpha_init", float("nan")), ("beta0", float("nan")), ("conf_decay", float("nan")),
        ("skip_alpha_init", float("inf")), ("skip_alpha_init", -float("inf")),
        ("beta0", float("inf")), ("conf_decay", -float("inf")),
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

    @pytest.mark.parametrize("key, value", [
        ("std", float("inf")), ("std", float("nan")), ("mean", float("nan")),
        ("mean", float("inf")),
    ])
    def test_non_finite_norm_stats_are_data_error(self, trained, capsys, key, value):
        tmp_path = trained["dir"]
        doc = json.loads(trained["checkpoint"].read_text())
        doc["norm_stats"][key] = value
        ck = tmp_path / "bad_stats.ckpt"
        ck.write_text(json.dumps(doc))
        out = tmp_path / "bad_stats.csv"
        cfg = _write_config(tmp_path, name="badstats.json", input=str(trained["dart"]),
                            checkpoint=str(ck), output=str(out))
        assert main(["clean", "--config", cfg]) == 3
        assert "normalization stats" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_shape_fault_is_data_error(self, trained, capsys):
        tmp_path = trained["dir"]
        doc = as_version_2(json.loads(trained["checkpoint"].read_text()))
        doc["params"]["enc0.W"] = [row[:-1] for row in doc["params"]["enc0.W"]]
        ck = tmp_path / "bad_shape.ckpt"
        ck.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path, name="badshape.json", input=str(trained["dart"]),
                            checkpoint=str(ck), output=str(tmp_path / "x.csv"))
        assert main(["clean", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "'enc0.W'" in err and "expected shape" in err and str(ck) in err

    @pytest.mark.parametrize("edit, fault", [
        (lambda e: e["shape"].reverse(), "expected shape"),
        (lambda e: e.update(shape={"rows": 32}), "'shape' must be a list of integers >= 0"),
        (lambda e: e.update(shape=[32, -24]), "'shape' must be a list of integers >= 0"),
        (lambda e: e.update(shape=[32, 24.0]), "'shape' must be a list of integers >= 0"),
        (lambda e: e.update(data=None), "'data' must be a base64 string"),
        (lambda e: e.update(data="*" + e["data"][1:]), "'data' is not base64"),
        (lambda e: e.update(data=e["data"][:-1]), "'data' is not base64"),
        (lambda e: e.update(data=e["data"][:-4]), "'data' holds 6141 bytes, expected 6144"),
        (lambda e: e.update(data=base64.b64encode(np.full(32 * 24, np.nan).tobytes()).decode()),
         "corrupted numbers"),
    ], ids=["wrong-shape", "shape-object", "negative-shape", "float-shape", "data-null",
            "bad-base64", "bad-padding", "wrong-byte-length", "nan-payload"])
    def test_version_3_array_fault_is_data_error(self, trained, capsys, edit, fault):
        tmp_path = trained["dir"]
        doc = json.loads(trained["checkpoint"].read_text())
        assert doc["format_version"] == 3
        edit(doc["params"]["enc0.W"])
        ck = tmp_path / "bad_array.ckpt"
        ck.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path, name="badarray.json", input=str(trained["dart"]),
                            checkpoint=str(ck), output=str(tmp_path / "x.csv"))
        assert main(["clean", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "'enc0.W'" in err and fault in err

    def test_missing_checkpoint_is_error(self, trained):
        tmp_path = trained["dir"]
        cfg = _write_config(tmp_path, name="nock.json", input=str(trained["dart"]),
                            checkpoint=str(tmp_path / "nope.ckpt"),
                            output=str(tmp_path / "x.csv"))
        assert main(["clean", "--config", cfg]) != 0


class TestCmdEvalLatent:
    @staticmethod
    def _evaluated(trained, suffix):
        """Clean the trained series and evaluate the cleaned CSV; returns
        (the report, the cleaned CSV's path)."""
        tmp_path = trained["dir"]
        clean_cfg, out = TestCmdClean()._clean_cfg(trained, suffix=suffix)
        assert main(["clean", "--config", clean_cfg]) == 0
        report = tmp_path / f"report{suffix}.json"
        cfg = _write_config(
            tmp_path, name=f"eval{suffix}.json",
            input=str(out), ground_truth=str(tmp_path / "truth.csv"),
            output=str(report), detect={"w_s": 24, "w_l": 96},
        )
        assert main(["eval", "--config", cfg]) == 0
        return json.loads(report.read_text()), out

    def test_eval_schema(self, trained):
        report, _ = self._evaluated(trained, "_e")
        for block in ("pipeline", "baseline"):
            for key in ("mse", "temporal_consistency", "precision", "recall",
                        "f1_spike", "step_recall", "residual", "rate_of_change"):
                assert key in report[block], (block, key)
            assert set(report[block]["residual"]) == {
                "max_abs", "fraction_within_bound", "nonzero_fraction_within_bound",
                "nonzero_count", "bound"}, block

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_eval_rejects_non_finite_cleaned_value(self, trained, capsys, value):
        tmp_path = trained["dir"]
        clean_cfg, out = TestCmdClean()._clean_cfg(trained, suffix="_nf")
        assert main(["clean", "--config", clean_cfg]) == 0
        lines = out.read_text().splitlines()
        fields = lines[7].split(",")
        fields[2] = value
        lines[7] = ",".join(fields)
        out.write_text("\n".join(lines) + "\n")
        cfg = _write_config(tmp_path, name="eval_nf.json", input=str(out),
                            ground_truth=str(tmp_path / "truth.csv"),
                            output=str(tmp_path / "report_nf.json"),
                            detect={"w_s": 24, "w_l": 96})
        assert main(["eval", "--config", cfg]) == 3
        assert "line 8:" in capsys.readouterr().err

    def test_eval_f1_matches_library(self, trained):
        from dartclean import metrics
        report, out = self._evaluated(trained, "_f1")
        truth = read_ground_truth(trained["dir"] / "truth.csv")
        doc = series_io.read_cleaned_csv(str(out))
        spike = truth["spike"]
        starts = np.flatnonzero(spike & ~np.r_[False, spike[:-1]])
        expect = metrics.spike_f1(doc.spike.astype(bool), starts)
        assert report["pipeline"]["f1_spike"] == pytest.approx(expect["f1"])

    def test_eval_scores_each_spike_at_its_start(self):
        # a three-sample spike and a one-sample spike: a mask of the first
        # one's start alone finds one of two events, with no false alarm
        n = 40
        clean = np.sin(np.arange(n) / 3.0)
        spike, step = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        spike[[10, 11, 12, 30]] = True
        truth = {"clean": clean, "spike": spike, "step": step, "contaminated": clean + spike}
        found = np.arange(n) == 10
        report = _method_metrics(clean + 0.01 * np.cos(np.arange(n)), found, step, truth, 900.0)
        assert (report["precision"], report["recall"]) == (1.0, 0.5)

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


class TestTypedReadErrors:
    """A short row or a non-numeric field in a cleaned CSV or a ground-truth
    file raises ParseError naming the line, so `dartclean eval` exits 3."""

    @pytest.mark.parametrize("row", ["2022-01-01T00:15:00Z,1.0,2.0",
                                     "2022-01-01T00:15:00Z,1.0,x,0,0,0.5"])
    def test_cleaned_csv_bad_row(self, row):
        text = (series_io.CSV_HEADER + "\n2022-01-01T00:00:00Z,1.0,1.0,0,0,0.0\n"
                + row + "\n")
        with pytest.raises(ParseError, match="line 3"):
            series_io.read_cleaned_csv(io.StringIO(text))

    @pytest.mark.parametrize("row", ["2022-01-01T00:15:00Z,1.0,2.0",
                                     "2022-01-01T00:15:00Z,1.0,2.0,0,one,0"])
    def test_ground_truth_bad_row(self, tmp_path, row):
        path = tmp_path / "truth.csv"
        path.write_text("# seed=1 cadence=900.0\n"
                        "time_iso8601,clean_m,contaminated_m,is_spike,is_step,is_gap\n"
                        f"2022-01-01T00:00:00Z,1.0,1.0,0,0,0\n{row}\n")
        with pytest.raises(ParseError, match="line 4"):
            read_ground_truth(path)

    @pytest.mark.parametrize("bad", ["cleaned", "truth"])
    def test_eval_exits_3(self, trained, capsys, bad):
        tmp_path = trained["dir"]
        short = tmp_path / f"short_{bad}.csv"
        good = {"cleaned": tmp_path / "cleaned_eval_src.csv", "truth": tmp_path / "truth.csv"}
        clean_cfg, out = TestCmdClean()._clean_cfg(trained, suffix="_eval_src")
        assert main(["clean", "--config", clean_cfg]) == 0
        lines = good[bad].read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:3])
        short.write_text("\n".join(lines) + "\n")
        paths = dict(good, **{bad: short})
        cfg = _write_config(tmp_path, name=f"eval_{bad}.json", input=str(paths["cleaned"]),
                            ground_truth=str(paths["truth"]),
                            output=str(tmp_path / "report_short.json"),
                            detect={"w_s": 24, "w_l": 96})
        assert main(["eval", "--config", cfg]) == 3
        assert "line 6" in capsys.readouterr().err

    @pytest.mark.parametrize("longer", ["cleaned", "truth"])
    def test_eval_length_mismatch_exits_3(self, trained, capsys, longer):
        # one data row duplicated: both files parse, but their rows differ
        tmp_path = trained["dir"]
        good = {"cleaned": tmp_path / "cleaned_eval_len.csv", "truth": tmp_path / "truth.csv"}
        clean_cfg, _ = TestCmdClean()._clean_cfg(trained, suffix="_eval_len")
        assert main(["clean", "--config", clean_cfg]) == 0
        lines = good[longer].read_text().splitlines()
        lines.insert(5, lines[5])
        paths = dict(good, **{longer: tmp_path / f"long_{longer}.csv"})
        paths[longer].write_text("\n".join(lines) + "\n")
        cfg = _write_config(tmp_path, name=f"eval_len_{longer}.json",
                            input=str(paths["cleaned"]), ground_truth=str(paths["truth"]),
                            output=str(tmp_path / "report_len.json"),
                            detect={"w_s": 24, "w_l": 96})
        assert main(["eval", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert str(paths["cleaned"]) in err and str(paths["truth"]) in err


class TestOutputsCheckedFirst:
    """A command works out its output paths, defaults included, before it
    reads any input: a missing output, or an output that names the file of
    another output or of an input, exits 2 and leaves every file as it was."""

    def test_train_without_checkpoint_trains_nothing(self, trained, tmp_path, capsys):
        log = tmp_path / "log.csv"
        cfg = _write_config(tmp_path, input=str(trained["dart"]), train_log=str(log),
                            model={"window": 24, "hidden": [8], "latent": 4},
                            train={"epochs": 1})
        assert main(["train", "--config", cfg]) == 2
        assert "'checkpoint'" in capsys.readouterr().err
        assert not log.exists()

    @pytest.mark.parametrize("command", ["clean", "eval", "latent"])
    def test_missing_output_is_found_before_the_input(self, tmp_path, capsys, command):
        # the inputs do not exist, so reading one first would exit 3
        missing = str(tmp_path / "missing")
        cfg = _write_config(tmp_path, input=missing, checkpoint=missing, ground_truth=missing)
        assert main([command, "--config", cfg]) == 2
        assert "'output'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, paths", [
        ("synth", {"output": "x.dart", "ground_truth": "x.dart"}),
        ("synth", {"output": "x.dart", "ground_truth": "sub/../x.dart"}),
        ("train", {"checkpoint": "ck.json", "train_log": "ck.json"}),
        ("clean", {"output": "c.csv", "segments": "c.csv"}),
        ("clean", {"output": "c.csv", "iteration_log": "c.csv.segments.json"}),
        ("clean", {"output": "c.csv", "segments": "s.json", "iteration_log": "./s.json"}),
    ])
    def test_two_outputs_naming_one_file_exit_2(self, trained, tmp_path, capsys, command,
                                                 paths):
        (tmp_path / "sub").mkdir()
        paths = {key: str(tmp_path / path) for key, path in paths.items()}
        cfg = _write_config(tmp_path, input=str(trained["dart"]),
                            checkpoint=paths.pop("checkpoint", str(trained["checkpoint"])),
                            model={"window": 24, "hidden": [8], "latent": 4},
                            train={"epochs": 1}, synth={"n": 300, "seed": 1},
                            detect={"w_s": 24, "w_l": 96}, refine={"iterations": 1}, **paths)
        before = sorted(path.name for path in tmp_path.iterdir())
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        keys = [key for key in ("output", "ground_truth", "checkpoint", "train_log",
                                "segments", "iteration_log") if f"'{key}'" in err]
        assert len(keys) == 2, err
        assert sorted(path.name for path in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command, output, name", [
        ("train", "checkpoint", "input.dart"),
        ("train", "train_log", "./input.dart"),
        ("clean", "output", "input.dart"),
        ("clean", "segments", "ck.json"),
        ("clean", "iteration_log", "sub/../ck.json"),
    ])
    def test_output_naming_an_input_exits_2(self, trained, tmp_path, capsys, command, output,
                                            name):
        (tmp_path / "sub").mkdir()
        inputs = {"input": tmp_path / "input.dart", "checkpoint": tmp_path / "ck.json"}
        inputs["input"].write_bytes(trained["dart"].read_bytes())
        inputs["checkpoint"].write_bytes(trained["checkpoint"].read_bytes())
        before = {key: path.read_bytes() for key, path in inputs.items()}
        paths = {"input": str(inputs["input"]), "checkpoint": str(inputs["checkpoint"]),
                 "output": str(tmp_path / "c.csv"), output: str(tmp_path / name)}
        cfg = _write_config(tmp_path, model={"window": 24, "hidden": [8], "latent": 4},
                            train={"epochs": 1}, detect={"w_s": 24, "w_l": 96},
                            refine={"iterations": 1}, **paths)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        read = "input" if name.endswith(".dart") else "checkpoint"
        assert f"'{read}' and '{output}' both name the file" in err, err
        assert {key: path.read_bytes() for key, path in inputs.items()} == before
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "cfg.json", "ck.json", "input.dart", "sub"]


class TestEvalSameSeries:
    def test_truth_of_another_series_exits_3(self, trained, tmp_path, capsys):
        # the same row count at another cadence: every row but the first differs in time
        cfg, _ = _synth_args(tmp_path, n=2500, seed=7, gap_count=1, cadence=60.0)
        assert main(["synth", "--config", cfg]) == 0
        clean_cfg, cleaned = TestCmdClean()._clean_cfg(trained, suffix="_other")
        assert main(["clean", "--config", clean_cfg]) == 0
        truth, report = tmp_path / "truth.csv", tmp_path / "report.json"
        cfg = _write_config(tmp_path, name="eval.json", input=str(cleaned),
                            ground_truth=str(truth), output=str(report),
                            detect={"w_s": 24, "w_l": 96})
        assert main(["eval", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert str(cleaned) in err and str(truth) in err and "data row 2 " in err
        assert not report.exists()


class TestUnreadableInput:
    """A directory or a non-UTF-8 file given as an input exits 3 naming the
    path; given as the config, it exits 2."""

    @staticmethod
    def _bad(tmp_path, kind):
        path = tmp_path / kind
        if kind == "directory":
            path.mkdir(exist_ok=True)
        else:
            path.write_bytes(b"2022 01 01 00 00 00 1 2584.25 \xff\xfe caf\xe9\n")
        return str(path)

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    @pytest.mark.parametrize("command, key", [("clean", "input"), ("clean", "checkpoint"),
                                              ("eval", "input")])
    def test_input_exits_3(self, trained, tmp_path, capsys, kind, command, key):
        paths = {"clean": {"input": str(trained["dart"]), "checkpoint": str(trained["checkpoint"]),
                           "detect": {"w_s": 24, "w_l": 96}},
                 "eval": {"ground_truth": str(trained["dir"] / "truth.csv")}}[command]
        paths[key] = self._bad(tmp_path, kind)
        cfg = _write_config(tmp_path, output=str(tmp_path / "out"), **paths)
        assert main([command, "--config", cfg]) == 3
        assert f"cannot read {paths[key]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_config_exits_2(self, tmp_path, capsys, kind):
        path = self._bad(tmp_path, kind)
        assert main(["synth", "--config", path]) == 2
        assert f"cannot read {path}" in capsys.readouterr().err


class TestWritesIntoMissingDirectory:
    """Every command that cannot write an output exits 3 naming the path,
    before it has read an input or written any output."""

    @pytest.mark.parametrize("command, last", [
        ("synth", "ground_truth"), ("train", "checkpoint"), ("clean", "iteration_log"),
        ("eval", "output"), ("latent", "output"),
    ])
    def test_output_in_a_missing_directory_exits_3_before_any_output(
            self, trained, tmp_path, capsys, command, last):
        # every input is valid, so were the directory found only when the
        # last output is written, train and clean would first write the rest
        missing = tmp_path / "missing" / "out"
        paths = {key: str(tmp_path / key) for key in
                 ("output", "train_log", "segments", "iteration_log")}
        paths["checkpoint"] = str(tmp_path / "checkpoint" if command == "train"
                                  else trained["checkpoint"])
        paths["ground_truth"] = str(tmp_path / "ground_truth" if command == "synth"
                                    else trained["dir"] / "truth.csv")
        paths[last] = str(missing)
        cfg = _write_config(tmp_path, input=str(trained["dart"]),
                            model={"window": 24, "hidden": [8], "latent": 4},
                            train={"epochs": 1}, synth={"n": 300, "seed": 1},
                            detect={"w_s": 24, "w_l": 96}, refine={"iterations": 1}, **paths)
        assert main([command, "--config", cfg]) == 3
        assert capsys.readouterr().err == (f"data error: cannot write {missing}: "
                                           f"{missing.parent} is not a writable directory\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]

    def test_synth(self, tmp_path, capsys):
        out = tmp_path / "missing" / "series.dart"
        cfg = _write_config(tmp_path, output=str(out), synth={"n": 300, "seed": 1})
        assert main(["synth", "--config", cfg]) == 3
        assert str(out) in capsys.readouterr().err

    def test_synth_truth(self, tmp_path, capsys):
        truth = tmp_path / "missing" / "truth.csv"
        cfg = _write_config(tmp_path, output=str(tmp_path / "series.dart"),
                            ground_truth=str(truth), synth={"n": 300, "seed": 1})
        assert main(["synth", "--config", cfg]) == 3
        assert str(truth) in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["checkpoint", "train_log"])
    def test_train(self, trained, capsys, key):
        tmp_path = trained["dir"]
        paths = {"checkpoint": str(tmp_path / "ck_missing_dir.json"),
                 "train_log": str(tmp_path / "log_missing_dir.csv")}
        paths[key] = str(tmp_path / "missing" / "out")
        cfg = _write_config(tmp_path, name="train_missing.json", input=str(trained["dart"]),
                            model={"window": 24, "hidden": [8], "latent": 4},
                            train={"epochs": 1}, **paths)
        assert main(["train", "--config", cfg]) == 3
        assert paths[key] in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["output", "segments", "iteration_log"])
    def test_clean(self, trained, capsys, key):
        tmp_path = trained["dir"]
        paths = {"output": str(tmp_path / "cleaned_missing_dir.csv")}
        paths[key] = str(tmp_path / "missing" / "out")
        cfg = _write_config(tmp_path, name="clean_missing.json", input=str(trained["dart"]),
                            checkpoint=str(trained["checkpoint"]),
                            detect={"w_s": 24, "w_l": 96}, refine={"iterations": 1}, **paths)
        assert main(["clean", "--config", cfg]) == 3
        assert paths[key] in capsys.readouterr().err


def fail_part_way(text):
    """The first chunk of ``text`` (its first half, if it is one string),
    then an ``OSError``."""
    yield text[:len(text) // 2] if isinstance(text, str) else next(iter(text))
    raise OSError(errno.EIO, "injected fault")


class TestOutputsAllOrNothing:
    """A command's outputs are replaced together or not at all: an output
    that is a directory exits 3 before any input is read, and a write that
    fails part-way leaves every output as it was and no temporary file."""

    @pytest.mark.parametrize("command, key, kept", [("clean", "segments", "output"),
                                                    ("train", "checkpoint", "train_log")])
    def test_a_directory_output_exits_3_and_writes_nothing(self, trained, tmp_path, capsys,
                                                           command, key, kept):
        # every input is valid: found only when written, the directory
        # would fail after the cleaned CSV or the train log had replaced its file
        (tmp_path / key).mkdir()
        (tmp_path / kept).write_text("old\n")
        paths = {"checkpoint": str(trained["checkpoint"]), key: str(tmp_path / key),
                 kept: str(tmp_path / kept)}
        cfg = _write_config(tmp_path, input=str(trained["dart"]), verbosity=0,
                            model={"window": 24, "hidden": [8], "latent": 4},
                            train={"epochs": 1}, detect={"w_s": 24, "w_l": 96},
                            refine={"iterations": 1}, **paths)
        assert main([command, "--config", cfg]) == 3
        assert (tmp_path / kept).read_text() == "old\n"
        assert capsys.readouterr().err == (f"data error: cannot write {tmp_path / key}: "
                                           f"it is a directory\n")
        assert list((tmp_path / key).iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json", key, kept])

    @pytest.mark.parametrize("command, outputs", [
        ("synth", ("output", "ground_truth")), ("train", ("checkpoint", "train_log")),
        ("clean", ("output", "segments", "iteration_log")), ("eval", ("output",)),
        ("latent", ("output",)),
    ])
    def test_a_failing_last_output_changes_no_output(self, trained, tmp_path, capsys,
                                                      monkeypatch, command, outputs):
        source = trained["dart"]
        if command == "eval":
            clean_cfg, source = TestCmdClean()._clean_cfg(trained, suffix="_all_or_nothing")
            assert main(["clean", "--config", clean_cfg]) == 0
        paths = {key: tmp_path / key for key in outputs}
        for key, path in paths.items():
            path.write_text(f"old {key}\n")
        inputs = {"input": str(source), "checkpoint": str(trained["checkpoint"]),
                  "ground_truth": str(trained["dir"] / "truth.csv")}
        cfg = _write_config(tmp_path, verbosity=0,
                            model={"window": 24, "hidden": [8], "latent": 4},
                            train={"epochs": 1}, synth={"n": 300, "seed": 1},
                            detect={"w_s": 24, "w_l": 96}, refine={"iterations": 1},
                            **inputs | {key: str(path) for key, path in paths.items()})
        run = cli.COMMANDS[command]

        def last_fails(cfg):
            texts = run(cfg)
            last = list(texts)[-1]
            return texts | {last: fail_part_way(texts[last])}

        monkeypatch.setitem(cli.COMMANDS, command, last_fails)
        assert main([command, "--config", cfg]) == 3
        assert capsys.readouterr().err == (f"data error: cannot write {paths[outputs[-1]]}: "
                                           f"injected fault\n")
        assert {key: path.read_text() for key, path in paths.items()} == {
            key: f"old {key}\n" for key in outputs}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json", *outputs])


class TestMainErrors:
    def test_eval_without_ground_truth(self, tmp_path):
        cfg = _write_config(tmp_path, input=str(tmp_path / "x.csv"),
                            output=str(tmp_path / "y.json"))
        assert main(["eval", "--config", cfg]) == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("error, status, err", [
        (DartCleanError("boom"), 1, "error: boom"),
        (ConfigError("boom"), 2, "config error: boom"),
        (DataError("boom"), 3, "data error: boom"),
        (ParseError("boom", line_number=7), 3, "data error: line 7: boom"),
        (ShapeError("boom"), 3, "data error: boom"),
        (NumericError("boom"), 4, "numeric error: boom"),
        (trainer.DivergenceError("boom", trainer.TrainLog()), 4, "numeric error: boom"),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_each_error_exits_with_its_status_and_label(self, tmp_path, monkeypatch, capsys,
                                                       error, status, err):
        run = cli.COMMANDS["synth"]

        def fails(cfg):
            run(cfg)
            raise error

        monkeypatch.setitem(cli.COMMANDS, "synth", fails)
        output = f"output={tmp_path / 'series.dart'}"
        assert main(["synth", "--set", "synth.n=300", "--set", output]) == status
        assert capsys.readouterr().err == err + "\n"
        assert list(tmp_path.iterdir()) == []


# the child's address space, capped in the child alone: an allocation past
# it fails at once with MemoryError instead of paging or being killed
CAPPED_CHILD = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
from dartclean.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _capped_cli(*args, cap=3 << 30):
    """Run ``dartclean *args`` in a child process with a ``cap``-byte
    address space and one BLAS thread; returns the completed process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", CAPPED_CHILD, str(cap), *args], env=env,
                          capture_output=True, text=True, timeout=300)


class TestOutOfMemory:
    """A config that would allocate past ``series_io.MEMORY_BUDGET`` exits 2
    naming its key and the bytes, before allocating; an allocation within
    the budget that still cannot be met exits 1 with one line naming the
    command, not a traceback.  Each runs in a capped child, so a check
    that does not fire cannot page the host."""

    def assert_over_budget(self, proc, key, nbytes):
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"config error: {key} needs {nbytes} bytes for ")
        assert proc.stderr.endswith(f", over the {series_io.MEMORY_BUDGET:,}-byte budget\n")

    def test_synth_of_two_billion_samples(self, tmp_path):
        cfg, out = _synth_args(tmp_path)
        proc = _capped_cli("synth", "--config", cfg,
                           "--set", "synth.n=2000000000", "--set", "synth.cadence=1")
        self.assert_over_budget(proc, "synth.n", "144,000,000,000")
        assert not out.exists()

    def train_over_budget(self, tmp_path, override, key, nbytes):
        cfg, dart = _synth_args(tmp_path, n=600)
        assert main(["synth", "--config", cfg]) == 0
        checkpoint = tmp_path / "ck.json"
        cfg = _write_config(tmp_path, name="train.json", input=str(dart),
                            checkpoint=str(checkpoint))
        proc = _capped_cli("train", "--config", cfg, "--set", override)
        self.assert_over_budget(proc, key, nbytes)
        assert not checkpoint.exists()

    def test_train_of_a_layer_too_wide(self, tmp_path):
        # one infer worker's two buffers for the largest block, 151 rows,
        # 48 and 2 * 10^8 float64 wide, and its two seam slots and the
        # seam's two index arrays, each 47 rows of 48
        self.train_over_budget(tmp_path, "model.hidden=[200000000]", "model.hidden",
                               "241,600,130,176")

    def test_train_of_too_many_parameters(self, tmp_path):
        # each layer fits an infer block, but 320 065 600 083 parameters,
        # kept five times over, do not fit
        self.train_over_budget(tmp_path, "model.hidden=[400000,400000]", "model.hidden",
                               "12,802,624,003,320")

    def test_train_of_a_window_too_wide(self, tmp_path):
        # one infer worker's two buffers for the largest block, 151 rows,
        # its two seam slots and the seam's two index arrays: each holds
        # 151 rows of a window of 8 * 10^6 float64
        self.train_over_budget(tmp_path, "model.window=8000000", "model.window",
                               "57,984,000,000")

    def test_synth_within_the_budget_past_the_cap(self, tmp_path):
        # 50 000 000 samples are within the budget, but one of their
        # float64 arrays (400 MB) is past a 384 MB address space
        cfg, out = _synth_args(tmp_path)
        proc = _capped_cli("synth", "--config", cfg, "--set", "synth.n=50000000",
                           "--set", "synth.cadence=1", cap=384 << 20)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: dartclean synth ran out of memory: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not out.exists()
