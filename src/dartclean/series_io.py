"""Parsing and persistence: DART text files, cleaned CSV, checkpoints."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import DataError, ParseError

SENTINEL = 9999.0
SENTINEL_TOL = 1e-6
CHECKPOINT_VERSION = 2
# version 1 stored only window/hidden/latent; the other ModelConfig
# fields of such a file take their defaults
READABLE_VERSIONS = (1, 2)
CSV_HEADER = "time_iso8601,raw_m,cleaned_m,spike,step,residual_m"

FLAG_VALID = 0
FLAG_MISSING = 1


@dataclass
class RawSeries:
    """Timestamped water-column heights with per-sample quality flags."""

    timestamps: np.ndarray  # seconds since Unix epoch, strictly increasing
    values: np.ndarray      # meters; undefined where flagged
    flags: np.ndarray       # FLAG_VALID or FLAG_MISSING
    gap_mask: np.ndarray | None = None  # set by preprocess.fill_gaps

    def __len__(self):
        return len(self.values)


@dataclass
class CleanedOutput:
    timestamps: np.ndarray
    raw: np.ndarray
    cleaned: np.ndarray
    spike: np.ndarray
    step: np.ndarray
    residual: np.ndarray = field(default=None)

    def __post_init__(self):
        lengths = {len(self.timestamps), len(self.raw), len(self.cleaned),
                   len(self.spike), len(self.step)}
        if len(lengths) != 1:
            raise DataError("cleaned-output arrays must all share a length")
        if self.residual is None:
            self.residual = self.raw - self.cleaned


def _epoch_seconds(year, month, day, hour, minute, second):
    return datetime(year, month, day, hour, minute, second,
                    tzinfo=timezone.utc).timestamp()


def parse_dart_file(source) -> RawSeries:
    """Parse NOAA DART text (YEAR MONTH DAY HOUR MIN SEC T HEIGHT columns).

    Lines starting with '#' are headers.  Heights within 1e-6 of the 9999
    sentinel are marked missing.  ``source`` may be a path, text, bytes, or
    a file object.
    """
    text = _read_text(source)
    timestamps, values, flags = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 8:
            raise ParseError(f"expected 8 columns, found {len(parts)}", lineno)
        try:
            y, mo, d, h, mi, s = (int(p) for p in parts[:6])
            height = float(parts[7])
        except ValueError as exc:
            raise ParseError(f"unparseable number: {exc}", lineno) from None
        try:
            ts = _epoch_seconds(y, mo, d, h, mi, s)
        except ValueError as exc:
            raise ParseError(f"invalid date: {exc}", lineno) from None
        missing = abs(height - SENTINEL) <= SENTINEL_TOL
        if not missing and not np.isfinite(height):
            raise ParseError("non-finite height", lineno)
        timestamps.append(ts)
        values.append(height)
        flags.append(FLAG_MISSING if missing else FLAG_VALID)
    if not timestamps:
        raise DataError("no data rows found")
    ts = np.asarray(timestamps)
    if np.any(np.diff(ts) <= 0):
        bad = int(np.argmax(np.diff(ts) <= 0)) + 1
        raise DataError(f"timestamps not strictly increasing at row {bad + 1}")
    return RawSeries(timestamps=ts, values=np.asarray(values, dtype=float),
                     flags=np.asarray(flags, dtype=int))


def emit_dart(series: RawSeries, destination=None) -> str:
    """Serialize a RawSeries to DART text; flagged samples emit the sentinel.

    Heights use repr-precision formatting so emit -> parse round trips are
    value-exact for finite data.
    """
    lines = ["#YY  MM DD hh mm ss T   HEIGHT"]
    for ts, value, flag in zip(series.timestamps, series.values, series.flags):
        dt = datetime.fromtimestamp(float(ts), tz=timezone.utc)
        height = "9999.000" if flag == FLAG_MISSING else format(float(value), ".17g")
        lines.append(
            f"{dt.year:04d} {dt.month:02d} {dt.day:02d} "
            f"{dt.hour:02d} {dt.minute:02d} {dt.second:02d} 1 {height}"
        )
    text = "\n".join(lines) + "\n"
    if destination is not None:
        with open(destination, "w") as fh:
            fh.write(text)
    return text


def _read_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    text = str(source)
    if "\n" in text:
        return text
    try:
        with open(text, "rb") as fh:
            return fh.read().decode("utf-8")
    except FileNotFoundError:
        raise DataError(f"file not found: {text}") from None


def _iso8601(ts: float) -> str:
    return datetime.fromtimestamp(float(ts), tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def write_cleaned_csv(out: CleanedOutput, destination) -> None:
    """CSV with 6-decimal floats and 0/1 anomaly flags, one row per sample."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for i in range(len(out.timestamps)):
        buf.write(
            f"{_iso8601(out.timestamps[i])},{out.raw[i]:.6f},{out.cleaned[i]:.6f},"
            f"{int(out.spike[i])},{int(out.step[i])},{out.residual[i]:.6f}\n"
        )
    if hasattr(destination, "write"):
        destination.write(buf.getvalue())
    else:
        with open(destination, "w") as fh:
            fh.write(buf.getvalue())


def read_cleaned_csv(source) -> CleanedOutput:
    text = _read_text(source)
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if ",".join(header) != CSV_HEADER:
        raise ParseError(f"unexpected header {header}")
    ts, raw, cleaned, spike, step, resid = [], [], [], [], [], []
    for row in reader:
        if not row:
            continue
        ts.append(datetime.strptime(row[0], "%Y-%m-%dT%H:%M:%SZ")
                  .replace(tzinfo=timezone.utc).timestamp())
        raw.append(float(row[1]))
        cleaned.append(float(row[2]))
        spike.append(int(row[3]))
        step.append(int(row[4]))
        resid.append(float(row[5]))
    return CleanedOutput(
        timestamps=np.asarray(ts), raw=np.asarray(raw), cleaned=np.asarray(cleaned),
        spike=np.asarray(spike), step=np.asarray(step), residual=np.asarray(resid),
    )


def save_checkpoint(model, stats, destination, hyperparameters=None) -> None:
    """Persist a model plus normalization stats as a versioned JSON document."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "architecture": dataclasses.asdict(model.config),
        "hyperparameters": hyperparameters or {},
        "norm_stats": {"mean": float(stats.mean), "std": float(stats.std)},
        "params": {name: np.asarray(arr).tolist()
                   for name, arr in model.state_arrays().items()},
    }
    payload = json.dumps(doc)
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(destination, "w") as fh:
            fh.write(payload)


def _object(doc: dict, key: str) -> dict:
    value = doc.get(key)
    if not isinstance(value, dict):
        raise DataError(f"checkpoint {key!r} must be a JSON object, "
                        f"got {type(value).__name__}")
    return value


def _model_config(arch: dict):
    from .model import ModelConfig

    defaults = {f.name: f.default for f in dataclasses.fields(ModelConfig)}
    unknown = set(arch) - set(defaults)
    if unknown:
        raise DataError(f"unknown checkpoint architecture key(s): {sorted(unknown)}")
    kwargs = {}
    for key, value in arch.items():
        try:
            if key == "hidden":
                kwargs[key] = tuple(int(h) for h in value)
            else:
                kwargs[key] = type(defaults[key])(value)
        except (TypeError, ValueError):
            raise DataError(f"checkpoint architecture {key!r}: bad value {value!r}") from None
    return ModelConfig(**kwargs)


def load_checkpoint(source):
    """Load a checkpoint; returns (Vae, NormStats).

    Validates the format version, the document's structure and every
    array shape before touching the model, so a corrupt file never yields
    a partially loaded network.
    """
    from .model import Vae
    from .preprocess import NormStats

    text = _read_text(source)
    if not text.strip():
        raise ParseError("empty checkpoint file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid checkpoint JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"checkpoint must be a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if version not in READABLE_VERSIONS:
        raise DataError(f"unsupported checkpoint version {version!r}")
    model = Vae(_model_config(_object(doc, "architecture")), seed=0)
    arrays = {}
    for name, value in _object(doc, "params").items():
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise DataError(f"array {name!r} is not a numeric array") from None
        if not np.all(np.isfinite(arr)):
            raise DataError(f"corrupted numbers in array {name!r}")
        arrays[name] = arr
    model.load_state(arrays)
    norm = _object(doc, "norm_stats")
    try:
        stats = NormStats(mean=float(norm["mean"]), std=float(norm["std"]))
    except (KeyError, TypeError, ValueError):
        raise DataError("checkpoint 'norm_stats' needs numeric 'mean' and 'std'") from None
    return model, stats
