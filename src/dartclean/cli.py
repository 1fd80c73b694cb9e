"""Command-line interface.

    dartclean synth|train|clean|eval|latent --config cfg.json
             [--seed N] [--set key=value]...

All behavior is driven by a JSON config document; ``--set`` overrides use
dotted paths (e.g. ``--set train.epochs=50``).  Unknown config keys are
rejected.  Exit codes: 0 success, 2 config error, 3 data error, 4 numeric
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import detector, metrics, pipeline, postprocess, refiner, series_io, synth, trainer
from .errors import ConfigError, DartCleanError, DataError, NumericError
from .model import ModelConfig, Vae
from .preprocess import fill_gaps, make_windows, zscore_normalize

SECTION_TYPES = {
    "model": ModelConfig,
    "train": trainer.TrainConfig,
    "detect": detector.DetectConfig,
    "refine": refiner.RefineConfig,
    "smooth": postprocess.SmoothConfig,
    "synth": synth.SynthSpec,
}

PATH_KEYS = ("input", "output", "checkpoint", "ground_truth",
             "train_log", "segments", "iteration_log")
TOP_KEYS = set(PATH_KEYS) | set(SECTION_TYPES) | {"seed", "verbosity"}


def _build_section(cls, data: dict, path: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) under {path!r}: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    return cls(**kwargs)


def load_config(path=None, overrides=(), seed=None):
    data = {}
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON: {exc}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    unknown = set(data) - TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {sorted(unknown)}")
    if seed is not None:
        data["seed"] = seed
    cfg = {"seed": int(data.get("seed", 0)), "paths": {}, "verbosity": data.get("verbosity", 1)}
    for key in PATH_KEYS:
        cfg["paths"][key] = data.get(key)
    for name, cls in SECTION_TYPES.items():
        section = dict(data.get(name, {}))
        if name in ("train", "synth") and "seed" not in section:
            section["seed"] = cfg["seed"]
        cfg[name] = _build_section(cls, section, name)
    return cfg


def _require(cfg, key):
    value = cfg["paths"].get(key)
    if not value:
        raise ConfigError(f"config must set {key!r} for this command")
    return value


def _derived(cfg, key, suffix):
    return cfg["paths"].get(key) or _require(cfg, "output") + suffix


def _iso(ts):
    return datetime.fromtimestamp(float(ts), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def cmd_synth(cfg) -> int:
    spec = cfg["synth"]
    truth = synth.generate(spec)
    out_path = _require(cfg, "output")
    series_io.emit_dart(truth.to_raw_series(), out_path)
    gt_path = _derived(cfg, "ground_truth", ".truth.csv")
    spike = np.zeros(spec.n, dtype=int)
    spike[truth.spike_indices] = 1
    step = np.zeros(spec.n, dtype=int)
    step[truth.step_locations] = 1
    gap = np.zeros(spec.n, dtype=int)
    gap[truth.gap_indices] = 1
    with open(gt_path, "w") as fh:
        fh.write(f"# seed={spec.seed} cadence={spec.cadence}\n")
        fh.write("time_iso8601,clean_m,contaminated_m,is_spike,is_step,is_gap\n")
        for i in range(spec.n):
            fh.write(f"{_iso(truth.timestamps[i])},{truth.clean[i]:.6f},"
                     f"{truth.contaminated[i]:.6f},{spike[i]},{step[i]},{gap[i]}\n")
    return 0


def read_ground_truth(path):
    clean, contaminated, spike, step, gap = [], [], [], [], []
    cadence = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("cadence="):
                        cadence = float(token.split("=", 1)[1])
                continue
            if line.startswith("time_iso8601"):
                continue
            parts = line.split(",")
            clean.append(float(parts[1]))
            contaminated.append(float(parts[2]))
            spike.append(int(parts[3]))
            step.append(int(parts[4]))
            gap.append(int(parts[5]))
    if not clean:
        raise DataError(f"no ground-truth rows in {path}")
    return {
        "clean": np.asarray(clean), "contaminated": np.asarray(contaminated),
        "spike": np.asarray(spike, dtype=bool), "step": np.asarray(step, dtype=bool),
        "gap": np.asarray(gap, dtype=bool), "cadence": cadence or 900.0,
    }


def cmd_train(cfg) -> int:
    raw = series_io.parse_dart_file(_require(cfg, "input"))
    filled = fill_gaps(raw)
    norm = zscore_normalize(filled)
    model_cfg = cfg["model"]
    windows = make_windows(norm, w=model_cfg.window, s=1)
    model = Vae(model_cfg, seed=cfg["seed"])
    train_cfg = cfg["train"]
    log_path = _derived(cfg, "train_log", ".train.csv")
    try:
        log, reason = trainer.train(model, windows, train_cfg)
    except trainer.DivergenceError as exc:
        exc.log.to_csv(log_path)
        raise
    log.to_csv(log_path)
    series_io.save_checkpoint(model, norm.stats, _require(cfg, "checkpoint"),
                              hyperparameters=dataclasses.asdict(train_cfg))
    if cfg["verbosity"]:
        final = log.records[-1]
        print(f"trained {final.epoch} epochs (stop: {reason}); "
              f"val loss {final.val_total:.6g}")
    return 0


def cmd_clean(cfg) -> int:
    model, stats = series_io.load_checkpoint(_require(cfg, "checkpoint"))
    raw = series_io.parse_dart_file(_require(cfg, "input"))
    result = pipeline.clean_series(model, stats, raw, cfg["detect"],
                                   cfg["refine"], cfg["smooth"])
    out_path = _require(cfg, "output")
    series_io.write_cleaned_csv(result.output, out_path)
    segments = [
        {"kind": kind, "start": int(start), "end": int(end),
         "peak_value": float(np.abs(result.normalized_input[start:end + 1]).max())}
        for kind, start, end in result.segments
    ]
    with open(_derived(cfg, "segments", ".segments.json"), "w") as fh:
        json.dump({"segments": segments,
                   "step_edge_warnings": result.step_warnings}, fh, indent=2)
        fh.write("\n")
    with open(_derived(cfg, "iteration_log", ".iterations.csv"), "w") as fh:
        fh.write("iteration,mean_change,masked_count,max_correction\n")
        for it, mean_change, count, max_corr in refiner.iteration_log_rows(result.refine_log):
            fh.write(f"{it},{mean_change:.10g},{count},{max_corr:.10g}\n")
    return 0


def _method_metrics(cleaned, spike_mask, step_locations, truth, cadence) -> dict:
    clean = truth["clean"]
    f1 = metrics.spike_f1(spike_mask, np.flatnonzero(truth["spike"]))
    true_steps = np.flatnonzero(truth["step"])
    detected = np.flatnonzero(step_locations) if step_locations is not None else np.array([], dtype=int)
    step_hits = sum(1 for t in true_steps if detected.size and np.abs(detected - t).min() <= 240)
    resid = metrics.residual_stats(truth["contaminated"], cleaned)
    roc = metrics.rate_of_change(cleaned, cadence)
    return {
        "mse": float(np.mean((cleaned - clean) ** 2)),
        "temporal_consistency": metrics.temporal_consistency(clean, cleaned),
        "precision": f1["precision"],
        "recall": f1["recall"],
        "f1_spike": f1["f1"],
        "step_recall": step_hits / len(true_steps) if len(true_steps) else 1.0,
        "residual": {k: v for k, v in resid.items() if not k.startswith("histogram")},
        "rate_of_change": {"min": roc["min"], "max": roc["max"]},
    }


def cmd_eval(cfg) -> int:
    truth = read_ground_truth(_require(cfg, "ground_truth"))
    cleaned_doc = series_io.read_cleaned_csv(_require(cfg, "input"))
    cadence = truth["cadence"]
    base_cleaned, base_mask = metrics.baseline_rolling_median(
        truth["contaminated"], cfg["detect"])
    report = {
        "pipeline": _method_metrics(cleaned_doc.cleaned, cleaned_doc.spike.astype(bool),
                                    cleaned_doc.step.astype(bool), truth, cadence),
        "baseline": _method_metrics(base_cleaned, base_mask, None, truth, cadence),
    }
    with open(_require(cfg, "output"), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


def cmd_latent(cfg) -> int:
    model, stats = series_io.load_checkpoint(_require(cfg, "checkpoint"))
    raw = series_io.parse_dart_file(_require(cfg, "input"))
    filled = fill_gaps(raw)
    norm = zscore_normalize(filled, stats)
    batch = make_windows(norm, w=model.config.window, s=1)
    if len(batch.origins) < 3:
        raise DataError("latent projection needs at least 3 windows")
    latent, _ = model.encode(batch.windows, train=False)
    masks, *_ = pipeline.detect_anomalies(model, norm.values, cfg["detect"])
    labels = pipeline.label_windows(batch.origins, model.config.window, masks.segments)
    proj = metrics.project_latent(latent.mu)
    with open(_require(cfg, "output"), "w") as fh:
        fh.write("window_origin,pc1,pc2,is_anomalous\n")
        for origin, (p1, p2), flag in zip(batch.origins, proj["coords"], labels):
            fh.write(f"{origin},{p1:.6f},{p2:.6f},{flag}\n")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "clean": cmd_clean,
    "eval": cmd_eval,
    "latent": cmd_latent,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dartclean", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, args.seed)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except DartCleanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
