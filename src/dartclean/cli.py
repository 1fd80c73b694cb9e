"""Command-line interface.

    dartclean synth|train|clean|eval|latent --config cfg.json
             [--seed N] [--set key=value]...

All behavior is driven by a JSON config document; ``--set`` overrides use
dotted paths (e.g. ``--set train.epochs=50``).  Unknown config keys are
rejected.  Exit codes: 0 success, a package error's ``exit_status`` (see
``errors``), 1 on running out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import detector, metrics, pipeline, postprocess, refiner, series_io, synth, trainer
from .errors import ConfigError, DartCleanError, DataError
from .model import ModelConfig, Vae
from .preprocess import fill_gaps, make_windows, zscore_normalize
from .series_io import build_section, read_ground_truth, typed

SECTION_TYPES = {
    "model": ModelConfig,
    "train": trainer.TrainConfig,
    "detect": detector.DetectConfig,
    "refine": refiner.RefineConfig,
    "smooth": postprocess.SmoothConfig,
    "synth": synth.SynthSpec,
}

# the top-level keys that are no section, with their defaults
TOP_DEFAULTS = dict.fromkeys(("input", "output", "checkpoint", "ground_truth", "train_log",
                              "segments", "iteration_log"), "") | {"seed": 0, "verbosity": 1}


def load_config(path=None, overrides=(), seed=None):
    data = {}
    if path:
        try:
            data = json.loads(series_io.read_text(path))
        except DataError as exc:
            raise ConfigError(str(exc)) from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
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
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part!r} is not a section")
        node[parts[-1]] = value
    unknown = set(data) - set(TOP_DEFAULTS) - set(SECTION_TYPES)
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {sorted(unknown)}")
    if seed is not None:
        data["seed"] = seed
    cfg = {key: typed(data.get(key, like), like, key) for key, like in TOP_DEFAULTS.items()}
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {cfg['seed']}")
    for name, cls in SECTION_TYPES.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{name!r} must be an object of keys, got {section!r}")
        section = dict(section)
        if name in ("train", "synth") and "seed" not in section:
            section["seed"] = cfg["seed"]
        cfg[name] = build_section(cls, section, name)
    return cfg


def _require(cfg, key):
    value = cfg[key]
    if not value:
        raise ConfigError(f"config must set {key!r} for this command")
    return value


def _paths(cfg, inputs, base, **suffixes):
    """The required path ``cfg[key]`` of each key of ``inputs``, then the
    outputs: the required path ``cfg[base]``, then for each key of
    ``suffixes`` ``cfg[key]`` or that path plus its suffix.  An output that
    names the file of another key is a config error, and an output that is
    a directory, or whose directory is missing or unwritable, a data error,
    so a command checks where it writes before it reads or computes anything."""
    paths = {key: _require(cfg, key) for key in (*inputs, base)}
    paths |= {key: cfg[key] or paths[base] + suffix for key, suffix in suffixes.items()}
    owners = {}
    for key, path in paths.items():
        if (other := owners.setdefault(os.path.realpath(path), key)) != key and key not in inputs:
            raise ConfigError(f"{other!r} and {key!r} both name the file {path}")
    for key, path in paths.items():
        folder = os.path.dirname(path) or "."
        if key not in inputs and os.path.isdir(path):
            raise DataError(f"cannot write {path}: it is a directory")
        if key not in inputs and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise DataError(f"cannot write {path}: {folder} is not a writable directory")
    return paths.values()


def cmd_synth(cfg) -> dict:
    out_path, truth_path = _paths(cfg, (), "output", ground_truth=".truth.csv")
    truth = synth.generate(cfg["synth"])
    return {out_path: series_io.emit_dart(truth.to_raw_series()),
            truth_path: series_io.write_ground_truth(truth, cfg["synth"])}


def cmd_train(cfg) -> dict:
    source, checkpoint, log_path = _paths(cfg, ("input",), "checkpoint",
                                          train_log=".train.csv")
    raw = series_io.parse_dart_file(source)
    norm = zscore_normalize(fill_gaps(raw))
    windows = make_windows(norm.values, w=cfg["model"].window)
    model = Vae(cfg["model"], seed=cfg["seed"])
    try:
        log, reason = trainer.train(model, windows, cfg["train"])
    except trainer.DivergenceError as exc:
        series_io.write_files({log_path: exc.log.to_csv()})
        raise
    if cfg["verbosity"]:
        final = log.records[-1]
        print(f"trained {final.epoch} epochs (stop: {reason}); "
              f"val loss {final.val_total:.6g}")
    return {checkpoint: series_io.save_checkpoint(model, norm.stats,
                                                  dataclasses.asdict(cfg["train"])),
            log_path: log.to_csv()}


def cmd_clean(cfg) -> dict:
    checkpoint, source, out_path, segments_path, log_path = _paths(
        cfg, ("checkpoint", "input"), "output", segments=".segments.json",
        iteration_log=".iterations.csv")
    model, stats = series_io.load_checkpoint(checkpoint)
    raw = series_io.parse_dart_file(source)
    result = pipeline.clean_series(model, stats, raw, cfg["detect"],
                                   cfg["refine"], cfg["smooth"])
    return {out_path: series_io.write_cleaned_csv(result.output),
            segments_path: series_io.segments_json(result),
            log_path: series_io.iteration_log_csv(result.refine_log)}


def _method_metrics(cleaned, spike_mask, step_mask, truth, cadence) -> dict:
    clean, spike = truth["clean"], truth["spike"]
    # each spike is matched at its start, as the acceptance gate scores it
    f1 = metrics.spike_f1(spike_mask, np.flatnonzero(spike & ~np.r_[False, spike[:-1]]))
    true_steps = np.flatnonzero(truth["step"])
    step_hits = (np.abs(true_steps[:, None] - np.flatnonzero(step_mask)) <= 240).any(1).sum()
    return {
        "mse": float(np.mean((cleaned - clean) ** 2)),
        "temporal_consistency": metrics.temporal_consistency(clean, cleaned),
        "precision": f1["precision"],
        "recall": f1["recall"],
        "f1_spike": f1["f1"],
        "step_recall": step_hits / len(true_steps) if len(true_steps) else 1.0,
        "residual": metrics.residual_stats(truth["contaminated"], cleaned),
        "rate_of_change": metrics.rate_of_change(cleaned, cadence),
    }


def cmd_eval(cfg) -> dict:
    truth_path, cleaned_path, out_path = _paths(cfg, ("ground_truth", "input"), "output")
    truth = read_ground_truth(truth_path)
    cleaned_doc = series_io.read_cleaned_csv(cleaned_path)
    if len(cleaned_doc.cleaned) != len(truth["clean"]):
        raise DataError(f"{cleaned_path} has {len(cleaned_doc.cleaned)} rows but "
                        f"{truth_path} has {len(truth['clean'])}")
    differ = np.flatnonzero(cleaned_doc.timestamps != truth["timestamps"])
    if differ.size:
        raise DataError(f"{cleaned_path} and {truth_path} are not one series: "
                        f"their times differ from data row {differ[0] + 1} on")
    cadence = truth["cadence"]
    base_cleaned, base_mask = metrics.baseline_rolling_median(
        truth["contaminated"], cfg["detect"])
    report = {
        "pipeline": _method_metrics(cleaned_doc.cleaned, cleaned_doc.spike.astype(bool),
                                    cleaned_doc.step.astype(bool), truth, cadence),
        "baseline": _method_metrics(base_cleaned, base_mask, np.zeros_like(base_mask),
                                    truth, cadence),
    }
    return {out_path: json.dumps(report, indent=2) + "\n"}


def cmd_latent(cfg) -> dict:
    checkpoint, source, out_path = _paths(cfg, ("checkpoint", "input"), "output")
    model, stats = series_io.load_checkpoint(checkpoint)
    raw = series_io.parse_dart_file(source)
    norm = zscore_normalize(fill_gaps(raw), stats)
    origins = np.arange(len(norm.values) - model.config.window + 1)
    if len(origins) < 3:
        raise DataError("latent projection needs at least 3 windows")
    # the detect pass's latents are unblended, so z == mu + 0.0
    masks, first = pipeline.detect_anomalies(model, norm.values, cfg["detect"])
    labels = pipeline.label_windows(origins, model.config.window, masks.segments)
    coords = metrics.project_latent(first.z)
    return {out_path: "window_origin,pc1,pc2,is_anomalous\n" + "".join(
        f"{origin},{p1:.6f},{p2:.6f},{flag}\n"
        for origin, (p1, p2), flag in zip(origins, coords, labels))}


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
        series_io.write_files(COMMANDS[args.command](cfg))
        return 0
    except DartCleanError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_status
    except MemoryError as exc:
        print(f"error: dartclean {args.command} ran out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
