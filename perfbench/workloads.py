"""Workload definitions, set-up, operations and per-operation checks.

Every input reaches the program as a file the benchmark wrote: DART text
from ``dartclean synth`` and JSON configs, always passed by path.  Each
operation is one in-process ``dartclean.cli.main`` call.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from dartclean import cli, metrics, series_io

WINDOW = 48
VAL_FRACTION = 0.1          # TrainConfig default: the last 10 % of windows
STEP_TOLERANCE = 240        # samples, as in the acceptance gate
# Acceptance-gate learning settings (tests/test_acceptance.py TRAIN_RECIPE)
# at a fixed epoch count: early stopping cannot fire before `patience`
# epochs, so every training run stops with "epochs_exhausted".  Warm-up is
# off because a one-epoch run would otherwise spend its whole epoch below
# 15 % of the base learning rate.
RECIPE = dict(batch_size=128, base_lr=1e-3, seed=0, t_anneal=40000,
              patience=10, t_warmup=0)
SETUP_EPOCHS = 1
SETUP_MODEL = {"window": WINDOW, "hidden": [128, 64, 32], "latent": 16}
TRAIN_EPOCHS = 2            # full 512/256/128 width, the CLI default model

STEP_TIDES = [[0.3, 43200.0, 0.0], [0.15, 21600.0, 1.3]]
# Series specs (dartclean.synth.SynthSpec fields) and their default seeds.
# A run with --seed s uses default seed + s, so --seed 0 reproduces the
# acceptance series exactly.
SPIKE = dict(n=20000, cadence=900.0, noise_sigma=0.05, spike_count=40)
STEP = dict(n=20000, cadence=900.0, noise_sigma=0.05, tides=STEP_TIDES,
            spike_count=12, step_count=3, step_mag_range=[0.1, 0.17])
# One year at 15-minute cadence: sparse spikes, 2-3 steps, 9999 gap runs
# and a linear drift of ~0.1 m over the year.  The tide periods divide the
# 480-sample step window, as in the acceptance step series, so the only
# persistent mean shifts are the injected steps and the drift.
STATION_YEAR = dict(n=35040, cadence=900.0, noise_sigma=0.05, tides=STEP_TIDES,
                    spike_count=24, step_mag_range=[0.1, 0.2], drift="linear",
                    drift_rate=3e-6, gap_count=12, gap_len_range=[2, 8])
# Cleaned with each freshly trained full-width checkpoint; long enough that
# the clean takes about as long as the training it follows.
VERIFY = dict(n=6000, cadence=900.0, noise_sigma=0.05, spike_count=12)

# A shared host's speed swings by up to 1.7x in phases that last from
# seconds to minutes, and no run that fits the time budget averages them
# out.  So a fixed probe kernel, shaped like dartclean's own work (a dense
# layer pair, a rolling median, a cumulative-sum mean shift), runs before
# and after every timed unit, outside its timing.  A unit's reference time
# is its wall time x the mean of the two probe speeds / PROBE_REF_PER_S:
# the time it would have taken on a host that runs the probe at that rate.
PROBE_CALLS = 40
PROBE_REF_PER_S = 75.0
_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.standard_normal((2048, 48))
_PROBE_W1 = _PROBE_RNG.standard_normal((48, 128)) / 7
_PROBE_W2 = _PROBE_RNG.standard_normal((128, 64)) / 11
_PROBE_SERIES = _PROBE_RNG.standard_normal(4096)


def probe_speed() -> float:
    """Host speed now, in probe kernels per second."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(PROBE_CALLS):
        hidden = np.tanh(_PROBE_X @ _PROBE_W1) @ _PROBE_W2
        median = np.median(sliding_window_view(_PROBE_SERIES, 97), axis=1)
        csum = np.cumsum(_PROBE_SERIES)
        float(hidden.sum() + median.sum() + (csum[480:] - csum[:-480]).sum())
    return PROBE_CALLS / (time.perf_counter() - start)


@dataclass
class Series:
    name: str
    spec: dict
    seed: int
    rows: int = 0           # data rows of the DART file, counted after set-up
    truth: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    clean: list             # Series cleaned each round with a set-up checkpoint
    train: Series | None = None    # trained at full width each round ...
    verify: Series | None = None   # ... then used to clean this series

    def series(self):
        return self.clean + [s for s in (self.train, self.verify) if s]


def make_workload(name: str, seed: int) -> Workload:
    if name == "clean-acceptance":
        return Workload(name, [Series("spike", SPIKE, 7 + seed),
                               Series("step", STEP, 21 + seed)])
    if name == "clean-station-year":
        spec = dict(STATION_YEAR, step_count=2 + seed % 2)
        return Workload(name, [Series("station-year", spec, 365 + seed)])
    if name == "train-acceptance":
        return Workload(name, [], train=Series("spike", SPIKE, 7 + seed),
                        verify=Series("verify", VERIFY, 7 + seed))
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Op:
    kind: str               # "clean" | "train"
    series: str
    phase: str              # "setup" | "round"
    wall_s: float
    samples: int            # input samples of the operation
    reasons: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    epochs: int = 0
    train_windows: int = 0
    iteration_log: list = field(default_factory=list)   # masked_count per iteration
    ref_s: float = 0.0      # wall_s at the reference host speed

    @property
    def ok(self):
        return not self.reasons


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def program_digest(src_dir) -> str:
    """Identifies the program under test, so stored output digests are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def _count_rows(dart_path) -> int:
    with open(dart_path) as fh:
        return sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))


def train_windows(rows: int) -> int:
    """Windows the trainer fits on: all stride-1 windows minus the
    chronologically last validation fraction (same rounding as trainer)."""
    n_windows = rows - WINDOW + 1
    return n_windows - max(1, int(round(VAL_FRACTION * n_windows)))


class Runner:
    """Owns the work directory of one benchmark run."""

    def __init__(self, workload: Workload, work_dir: str, store_path: str, store_key: str):
        self.workload = workload
        self.dir = work_dir
        self.store_path = store_path
        self.store_key = store_key
        self.tracer = None      # when set, CLI calls run under its wrappers
        self.speed = None       # the latest probe speed
        os.makedirs(work_dir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.dir, name)

    def _call(self, argv):
        """One in-process CLI invocation; returns (exit status, wall seconds)."""
        gc.collect()
        with self.tracer.installed() if self.tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # any escape is an operation failure
                code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        return code, wall

    # ---------------------------------------------------------------- set-up

    def _probe(self):
        """Probe speeds before and after the next timed unit; the probe
        after one unit is the probe before the next."""
        before = self.speed if self.speed is not None else probe_speed()
        self.speed = probe_speed()
        return (before + self.speed) / 2 / PROBE_REF_PER_S

    def setup(self):
        """Generate every input, then train one 128/64/32 checkpoint per
        cleaned series.  Returns (wall seconds, reference seconds, setup
        ops)."""
        if self.speed is None:
            self.speed = probe_speed()
        ops = []
        start = time.perf_counter()
        for s in self.workload.series():
            cfg = self.path(f"{s.name}.synth.json")
            _write_json(cfg, {"output": self.path(f"{s.name}.dart"),
                              "ground_truth": self.path(f"{s.name}.truth.csv"),
                              "synth": dict(s.spec, seed=s.seed)})
            code, _ = self._call(["synth", "--config", cfg])
            if code != 0:
                raise RuntimeError(f"set-up: synth of {s.name} exited with {code}")
        for s in self.workload.clean:
            ops.append(self.train(s, f"{s.name}.ckpt", SETUP_MODEL, SETUP_EPOCHS, "setup"))
            if not ops[-1].ok:
                raise RuntimeError(f"set-up: training on {s.name} failed: {ops[-1].reasons}")
        wall = time.perf_counter() - start
        scale = self._probe()
        for op in ops:
            op.ref_s = op.wall_s * scale
        return wall, wall * scale, ops

    def load_inputs(self):
        for s in self.workload.series():
            s.rows = _count_rows(self.path(f"{s.name}.dart"))
            s.truth = cli.read_ground_truth(self.path(f"{s.name}.truth.csv"))

    # ------------------------------------------------------------ operations

    def train(self, s: Series, ckpt_name, model, epochs, phase) -> Op:
        cfg = self.path(f"{s.name}.{phase}.train.json")
        log = self.path(f"{ckpt_name}.train.csv")
        doc = {"input": self.path(f"{s.name}.dart"), "checkpoint": self.path(ckpt_name),
               "train_log": log, "seed": 0, "verbosity": 0,
               "train": dict(RECIPE, epochs=epochs)}
        if model:
            doc["model"] = model
        _write_json(cfg, doc)
        code, wall = self._call(["train", "--config", cfg])
        rows = s.rows or _count_rows(self.path(f"{s.name}.dart"))
        op = Op("train", s.name, phase, wall, rows, train_windows=train_windows(rows))
        if code != 0:
            op.reasons.append(f"exit status {code}")
            return op
        try:
            with open(log) as fh:
                lines = [line.split(",") for line in fh.read().splitlines()[1:] if line]
            op.epochs = len(lines)
            if op.epochs != epochs:
                op.reasons.append(f"train log holds {op.epochs} epochs, expected {epochs}")
            op.quality["train_val_total"] = float(lines[-1][6])
        except (OSError, IndexError, ValueError) as exc:
            op.reasons.append(f"unreadable train log: {exc}")
        try:
            series_io.load_checkpoint(self.path(ckpt_name))
        except Exception as exc:
            op.reasons.append(f"checkpoint does not load: {type(exc).__name__}: {exc}")
        op.digests = {"checkpoint": sha256(self.path(ckpt_name)), "train_log": sha256(log)}
        return op

    def clean(self, s: Series, ckpt_name, phase) -> Op:
        out = self.path(f"{s.name}.cleaned.csv")
        segments = self.path(f"{s.name}.segments.json")
        iterations = self.path(f"{s.name}.iterations.csv")
        cfg = self.path(f"{s.name}.clean.json")
        _write_json(cfg, {"input": self.path(f"{s.name}.dart"),
                          "checkpoint": self.path(ckpt_name), "output": out,
                          "segments": segments, "iteration_log": iterations})
        code, wall = self._call(["clean", "--config", cfg])
        op = Op("clean", s.name, phase, wall, s.rows)
        if code != 0:
            op.reasons.append(f"exit status {code}")
            return op
        try:
            table = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(1, 2, 3, 4, 5),
                               ndmin=2)
        except (OSError, ValueError) as exc:
            op.reasons.append(f"unreadable cleaned CSV: {exc}")
            return op
        if len(table) != s.rows:
            op.reasons.append(f"cleaned CSV has {len(table)} rows, input has {s.rows}")
        if not np.all(np.isfinite(table)):
            op.reasons.append("cleaned CSV holds a non-finite value")
        try:
            with open(segments) as fh:
                json.load(fh)
        except (OSError, ValueError) as exc:
            op.reasons.append(f"segments JSON does not parse: {exc}")
        try:
            with open(iterations) as fh:
                op.iteration_log = [int(line.split(",")[2])
                                    for line in fh.read().splitlines()[1:] if line]
        except (OSError, IndexError, ValueError) as exc:
            op.reasons.append(f"unreadable iteration log: {exc}")
        op.digests = {"cleaned_csv": sha256(out), "segments": sha256(segments)}
        if len(table) == s.rows:
            op.quality = score(table[:, 1], table[:, 2] > 0, table[:, 3] > 0, s.truth)
        return op

    def round(self):
        """One pass over the workload's operations, each between probes."""
        w = self.workload
        ops = []

        def probed(op):
            op.ref_s = op.wall_s * self._probe()
            ops.append(op)
            return op.ok

        for s in w.clean:
            probed(self.clean(s, f"{s.name}.ckpt", "round"))
        if w.train and probed(self.train(w.train, "round.ckpt", None, TRAIN_EPOCHS, "round")):
            probed(self.clean(w.verify, "round.ckpt", "round"))
        return ops

    # --------------------------------------------------------------- digests

    def check_digests(self, ops):
        """Outputs must be byte-identical whenever the same program cleans or
        trains on the same inputs: within this run and across runs kept in
        the store."""
        try:
            with open(self.store_path) as fh:
                store = json.load(fh)
        except (OSError, ValueError):
            store = {}
        for op in ops:
            if not op.digests:
                continue
            key = f"{self.store_key}/{op.kind}/{op.series}/{op.phase}"
            known = store.setdefault(key, op.digests)
            for name, digest in op.digests.items():
                if known.get(name, digest) != digest:
                    op.reasons.append(f"{name} digest differs from an earlier repeat")
        tmp = self.store_path + ".tmp"
        _write_json(tmp, store)
        os.replace(tmp, self.store_path)


def score(cleaned, spike_mask, step_mask, truth) -> dict:
    """Accuracy of one cleaned series against the synthetic truth."""
    spike = truth["spike"]
    starts = np.flatnonzero(spike & ~np.concatenate(([False], spike[:-1])))
    true_steps = np.flatnonzero(truth["step"])
    found = np.flatnonzero(step_mask)
    hits = sum(1 for t in true_steps
               if found.size and np.abs(found - t).min() <= STEP_TOLERANCE)
    return {
        "spike_f1": metrics.spike_f1(spike_mask, starts, tolerance=2)["f1"],
        "step_hits": hits,
        "steps": int(true_steps.size),
        "cleaned_rmse_m": float(np.sqrt(np.mean((cleaned - truth["clean"]) ** 2))),
    }
