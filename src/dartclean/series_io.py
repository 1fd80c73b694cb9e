"""Parsing and persistence: DART text files, cleaned CSV, checkpoints."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, DataError, ParseError

SENTINEL = 9999.0
SENTINEL_TOL = 1e-6
CHECKPOINT_VERSION = 2
# version 1 stored only window/hidden/latent; the other ModelConfig
# fields of such a file take their defaults
READABLE_VERSIONS = (1, 2)
CSV_HEADER = "time_iso8601,raw_m,cleaned_m,spike,step,residual_m"
CSV_ROW = "%s,%.6f,%.6f,%d,%d,%.6f\n"

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


# Rows per chunk of the text layer.  Only one chunk's token strings and
# formatted rows are alive at a time: a station year's ~280 000 tokens at
# once would add ~25 MB, and even 4 096-row chunks leave ~2 MB of freed
# small-object pools behind that a later training adds to its peak.
CHUNK_ROWS = 1024
ISO_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
# Whole-second range of ``datetime``: 0001-01-01T00:00:00 .. 9999-12-31T23:59:59
FIRST_SECOND, LAST_SECOND = -62135596800, 253402300799
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DATE_LIMITS = [(1, 9999), (1, 12), (1, 31), (0, 23), (0, 59), (0, 59)]
_BAD_INT = -1  # below every date field's range


def _raise_row_fault(parts, lineno):
    """Run the per-row checks on a row the array checks flagged, so the
    error (type, message, line) is the one a row-by-row parse raises."""
    if len(parts) != 8:
        raise ParseError(f"expected 8 columns, found {len(parts)}", lineno)
    try:
        y, mo, d, h, mi, s = (int(p) for p in parts[:6])
        height = float(parts[7])
    except ValueError as exc:
        raise ParseError(f"unparseable number: {exc}", lineno) from None
    try:
        datetime(y, mo, d, h, mi, s, tzinfo=timezone.utc).timestamp()
    except ValueError as exc:
        raise ParseError(f"invalid date: {exc}", lineno) from None
    missing = abs(height - SENTINEL) <= SENTINEL_TOL
    if not missing and not np.isfinite(height):
        raise ParseError("non-finite height", lineno)
    raise AssertionError(f"line {lineno}: flagged row passes the per-row checks")


def _date_int(token) -> int:
    try:
        value = int(token)
    except ValueError:
        return _BAD_INT
    return value if 0 <= value <= 9999 else _BAD_INT


def _epoch_days(y, mo, d):
    """Days since 1970-01-01 of proleptic Gregorian dates (Hinnant's
    days_from_civil), on int64 arrays with y >= 1."""
    y = y - (mo <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((mo + 9) % 12) + 2) // 5 + d - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


def _parse_rows(rows, ints: dict):
    """Timestamps, heights, missing mask and fault mask of 8-column rows.

    ``ints`` memoises ``int()`` of the date tokens across chunks; a token
    that is no integer, or one outside every date field's range (so none
    overflows int64), maps to ``_BAD_INT``."""
    n = len(rows)
    if not n:
        return np.empty(0), np.empty(0), np.empty(0, dtype=bool), np.empty(0, dtype=bool)
    tokens = list(itertools.chain.from_iterable(rows))
    date = np.empty((6, n), dtype=np.int64)
    for j in range(6):
        column = tokens[j::8]
        ints.update((t, _date_int(t)) for t in set(column).difference(ints))
        date[j] = np.fromiter(map(ints.__getitem__, column), np.int64, n)
    fault = np.zeros(n, dtype=bool)
    try:
        heights = np.fromiter(map(float, tokens[7::8]), float, n)
    except ValueError:
        heights = np.full(n, np.nan)
        for i, token in enumerate(tokens[7::8]):
            try:
                heights[i] = float(token)
            except ValueError:
                fault[i] = True
    for row, (lo, hi) in zip(date, _DATE_LIMITS):
        fault |= (row < lo) | (row > hi)
    y, mo, d, h, mi, s = date
    leap = (y % 4 == 0) & ((y % 100 != 0) | (y % 400 == 0))
    fault |= d > _DAYS_IN_MONTH[np.clip(mo, 1, 12) - 1] + (leap & (mo == 2))
    missing = np.abs(heights - SENTINEL) <= SENTINEL_TOL
    fault |= ~missing & ~np.isfinite(heights)
    seconds = _epoch_days(y, mo, d) * 86400 + h * 3600 + mi * 60 + s
    return seconds.astype(float), heights, missing, fault


def _parse_chunk(lines, start, ints):
    chunk = lines[start:start + CHUNK_ROWS]
    rows = [p for p in map(str.split, chunk) if p and p[0][0] != "#"]
    first_fault = len(rows)
    if set(map(len, rows)) - {8}:
        first_fault = next(i for i, p in enumerate(rows) if len(p) != 8)
    ts, heights, missing, fault = _parse_rows(rows[:first_fault], ints)
    if fault.any():
        first_fault = int(np.argmax(fault))
    if first_fault < len(rows):
        linenos = [k for k, p in enumerate(map(str.split, chunk), start=start + 1)
                   if p and p[0][0] != "#"]
        _raise_row_fault(rows[first_fault], linenos[first_fault])
    return ts, heights, missing


def parse_dart_file(source) -> RawSeries:
    """Parse NOAA DART text (YEAR MONTH DAY HOUR MIN SEC T HEIGHT columns).

    Lines starting with '#' are headers.  Heights within 1e-6 of the 9999
    sentinel are marked missing.  ``source`` may be a path, text, bytes, or
    a file object.  Rows are converted ``CHUNK_ROWS`` at a time, a column
    at a time; the first faulty line (by line number) raises ``ParseError``
    naming it.
    """
    lines = _read_text(source).splitlines()
    ints = {}
    chunks = [_parse_chunk(lines, start, ints) for start in range(0, len(lines), CHUNK_ROWS)]
    if not any(len(c[0]) for c in chunks):
        raise DataError("no data rows found")
    ts, values, missing = (np.concatenate(column) for column in zip(*chunks))
    if np.any(np.diff(ts) <= 0):
        bad = int(np.argmax(np.diff(ts) <= 0)) + 1
        raise DataError(f"timestamps not strictly increasing at row {bad + 1}")
    return RawSeries(timestamps=ts, values=values,
                     flags=np.where(missing, FLAG_MISSING, FLAG_VALID))


def _utc_seconds(timestamps) -> np.ndarray:
    """Whole UTC seconds of each stamp as ``datetime.fromtimestamp`` takes
    them: the fraction rounds to the microsecond, half to even, and a
    rounded 1 000 000 us carries into the next second.  A stamp outside
    ``datetime``'s range raises the error ``fromtimestamp`` raises."""
    ts = np.asarray(timestamps, dtype=float)
    whole = np.trunc(ts)
    with np.errstate(invalid="ignore"):
        micro = np.rint((ts - whole) * 1e6)
    whole += (micro >= 1e6).astype(float) - (micro < 0)
    bad = ~((whole >= FIRST_SECOND) & (whole <= LAST_SECOND))
    if bad.any():
        datetime.fromtimestamp(float(ts[np.argmax(bad)]), tz=timezone.utc)
        raise AssertionError("out-of-range stamp passed datetime.fromtimestamp")
    return whole.astype(np.int64)


def _stamp_codes(timestamps) -> np.ndarray:
    """[n, 20] code points: ``YYYY-MM-DDTHH:MM:SS`` of each stamp's whole
    UTC second, then a free (NUL) column; ``.view("U20")`` reads them."""
    text = np.datetime_as_string(_utc_seconds(timestamps).astype("datetime64[s]"), unit="s")
    codes = np.zeros((len(text), 20), dtype=np.uint32)
    codes[:, :19] = text.astype("U19").view(np.uint32).reshape(-1, 19)
    return codes


def iso8601(timestamps) -> list:
    """``datetime.fromtimestamp(ts, tz=utc).strftime(ISO_FORMAT)`` of every
    stamp."""
    codes = _stamp_codes(timestamps)
    codes[:, 19] = ord("Z")
    stamps = codes.view("U20").ravel()
    # strftime's %Y pads no year below 1000 with zeros on glibc; let it decide
    for i in np.flatnonzero(stamps < "1000"):
        stamps[i] = datetime.strptime(stamps[i], ISO_FORMAT).strftime(ISO_FORMAT)
    return stamps.tolist()


def _dart_stamps(timestamps) -> list:
    codes = _stamp_codes(timestamps)
    codes[:, [4, 7, 10, 13, 16]] = ord(" ")  # YYYY MM DD hh mm ss
    return codes.view("U20").ravel().tolist()


def format_rows(row, stamps, timestamps, columns):
    """Yield ``row((stamp, *values))`` of every row, ``CHUNK_ROWS`` rows
    joined per chunk: ``stamps`` turns a chunk of timestamps into strings,
    and the equal-length array ``columns`` go through ``tolist`` a chunk at
    a time, so no whole-series list of Python objects is ever built."""
    timestamps = np.asarray(timestamps, dtype=float)
    for i in range(0, len(timestamps), CHUNK_ROWS):
        yield "".join(map(row, zip(stamps(timestamps[i:i + CHUNK_ROWS]),
                                   *(c[i:i + CHUNK_ROWS].tolist() for c in columns))))


def write_text(destination, text) -> None:
    """Write ``text``, a string or an iterable of strings, to a file object,
    or atomically to a path: into a temporary file beside it, then
    ``os.replace``.  The temporary file never outlives the call; a failed
    write raises ``DataError`` naming the path."""
    parts = [text] if isinstance(text, str) else text
    if hasattr(destination, "write"):
        destination.write("".join(parts))
        return
    path = os.fspath(destination)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _dart_row(values) -> str:
    stamp, height, missing = values
    return f"{stamp} 1 {'9999.000' if missing else format(height, '.17g')}\n"


def emit_dart(series: RawSeries, destination=None) -> str:
    """Serialize a RawSeries to DART text; flagged samples emit the sentinel.

    Heights use repr-precision formatting so emit -> parse round trips are
    value-exact for finite data.
    """
    text = "#YY  MM DD hh mm ss T   HEIGHT\n" + "".join(format_rows(
        _dart_row, _dart_stamps, series.timestamps,
        [np.asarray(series.values, dtype=float), np.asarray(series.flags) == FLAG_MISSING]))
    if destination is not None:
        write_text(destination, text)
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


def write_cleaned_csv(out: CleanedOutput, destination) -> None:
    """CSV with 6-decimal floats and 0/1 anomaly flags, one row per sample."""
    columns = [np.asarray(c) for c in (out.raw, out.cleaned, out.spike, out.step, out.residual)]
    write_text(destination, itertools.chain(
        [CSV_HEADER + "\n"], format_rows(CSV_ROW.__mod__, iso8601, out.timestamps, columns)))


def read_cleaned_csv(source) -> CleanedOutput:
    text = _read_text(source)
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if ",".join(header) != CSV_HEADER:
        raise ParseError(f"unexpected header {header}")
    ts, raw, cleaned, spike, step, resid = [], [], [], [], [], []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != 6:
                raise ValueError(f"expected 6 fields, found {len(row)}")
            ts.append(datetime.strptime(row[0], ISO_FORMAT)
                      .replace(tzinfo=timezone.utc).timestamp())
            raw.append(float(row[1]))
            cleaned.append(float(row[2]))
            spike.append(int(row[3]))
            step.append(int(row[4]))
            resid.append(float(row[5]))
        except ValueError as exc:
            raise ParseError(f"bad cleaned-CSV row: {exc}", reader.line_num) from None
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
    write_text(destination, json.dumps(doc))


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
    try:
        return ModelConfig(**kwargs)
    except ConfigError as exc:
        raise DataError(f"checkpoint architecture: {exc}") from None


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
