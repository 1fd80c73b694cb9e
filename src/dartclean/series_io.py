"""Parsing and persistence: DART text files, cleaned CSV, checkpoints."""

from __future__ import annotations

import base64
import binascii
import contextlib
import dataclasses
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, DataError, ParseError, ShapeError

SENTINEL = 9999.0
SENTINEL_TOL = 1e-6
CHECKPOINT_VERSION = 3
# version 1 stored only window/hidden/latent; the other ModelConfig
# fields of such a file take their defaults.  Versions 1 and 2 stored each
# array as nested JSON lists of numbers, version 3 as {"shape", "data"}
# with the array's little-endian float64 bytes in base64
READABLE_VERSIONS = (1, 2, 3)
CSV_HEADER = "time_iso8601,raw_m,cleaned_m,spike,step,residual_m"
CSV_ROW = "%s,%.6f,%.6f,%d,%d,%.6f\n"
TRUTH_HEADER = "time_iso8601,clean_m,contaminated_m,is_spike,is_step,is_gap"
TRUTH_ROW = "%s,%.6f,%.6f,%d,%d,%d\n"

FLAG_VALID = 0
FLAG_MISSING = 1


@dataclass
class RawSeries:
    """Timestamped water-column heights with per-sample quality flags."""

    timestamps: np.ndarray  # seconds since Unix epoch, strictly increasing
    values: np.ndarray      # meters; undefined where flagged
    flags: np.ndarray       # FLAG_VALID or FLAG_MISSING

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
# Whole-second range of ``datetime``: 0001-01-01T00:00:00 .. 9999-12-31T23:59:59
FIRST_SECOND, LAST_SECOND = -62135596800, 253402300799
_DATE_LIMITS = [(1, 9999), (1, 12), (1, 31), (0, 23), (0, 59), (0, 59)]
_BAD_INT = -1  # below every date field's range
# the DART ``T`` column: 1 for 15-min standard mode, 2 and 3 for 1-min and
# 15-s event mode
MEASUREMENT_TYPES = (1, 2, 3)


def _raise_row_fault(parts, lineno):
    """Run the per-row checks on a row the array checks flagged, so the
    error (type, message, line) is the one a row-by-row parse raises."""
    if len(parts) != 8:
        raise ParseError(f"expected 8 columns, found {len(parts)}", lineno)
    try:
        y, mo, d, h, mi, s, kind = (int(p) for p in parts[:7])
        height = float(parts[7])
    except ValueError as exc:
        raise ParseError(f"unparseable number: {exc}", lineno) from None
    if kind not in MEASUREMENT_TYPES:
        raise ParseError(f"measurement type T must be 1, 2 or 3, found {parts[6]}", lineno)
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


def _column(tokens, kind):
    """``kind(token)`` (float or int) of every token, and the mask of the
    tokens it rejects (their values are 0)."""
    try:
        return np.fromiter(map(kind, tokens), kind, len(tokens)), np.zeros(len(tokens), bool)
    except (ValueError, OverflowError):
        values, bad = np.zeros(len(tokens), kind), np.zeros(len(tokens), bool)
        for i, token in enumerate(tokens):
            try:
                values[i] = kind(token)
            except (ValueError, OverflowError):
                bad[i] = True
        return values, bad


def _calendar(date):
    """Epoch seconds, in NumPy's proleptic Gregorian calendar, of the [6, n]
    int64 rows Y M D h m s, and the mask of the columns that are no valid date and time."""
    fault = np.zeros(date.shape[1], dtype=bool)
    for row, (lo, hi) in zip(date, _DATE_LIMITS):
        fault |= (row < lo) | (row > hi)
    y, mo, d, h, mi, s = date
    # days since 1970-01-01 of the first of the month, and of the first of the next
    month = ((y - 1970) * 12 + mo - 1).astype("M8[M]")
    first = month.astype("M8[D]").astype(np.int64)
    fault |= d > (month + 1).astype("M8[D]").astype(np.int64) - first
    return (first + d - 1) * 86400 + h * 3600 + mi * 60 + s, fault


def _parse_rows(rows, ints: dict):
    """Timestamps, heights, missing mask and fault mask of 8-column rows.

    ``ints`` memoises ``int()`` of the date and ``T`` tokens across chunks;
    a token that is no integer, or one outside every date field's range (so
    none overflows int64), maps to ``_BAD_INT``."""
    n = len(rows)
    tokens = list(itertools.chain.from_iterable(rows))
    fields = np.empty((7, n), dtype=np.int64)   # Y M D h m s T
    for j in range(7):
        column = tokens[j::8]
        ints.update((t, _date_int(t)) for t in set(column).difference(ints))
        fields[j] = np.fromiter(map(ints.__getitem__, column), np.int64, n)
    heights, fault = _column(tokens[7::8], float)
    seconds, bad_date = _calendar(fields[:6])
    missing = np.abs(heights - SENTINEL) <= SENTINEL_TOL
    fault |= bad_date | ~np.isin(fields[6], MEASUREMENT_TYPES)
    fault |= ~missing & ~np.isfinite(heights)
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

    Lines starting with '#' are headers.  The measurement type ``T`` must
    be 1, 2 or 3; it is checked, not kept.  Heights within 1e-6 of the 9999
    sentinel are marked missing.  ``source`` is a path or a text stream.
    Rows are converted ``CHUNK_ROWS`` at a time, a column at a time; the
    first faulty line (by line number) raises ``ParseError`` naming it.
    """
    lines = read_text(source).splitlines()
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
    """``YYYY-MM-DDTHH:MM:SSZ`` of every stamp's UTC second (``_utc_seconds``),
    the year zero-padded to four digits."""
    codes = _stamp_codes(timestamps)
    codes[:, 19] = ord("Z")
    return codes.view("U20").ravel().tolist()


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


def emit_dart(series: RawSeries, destination) -> None:
    """Write a RawSeries as DART text; flagged samples emit the sentinel.

    Heights use repr-precision formatting so emit -> parse round trips are
    value-exact for finite data.
    """
    write_text(destination, itertools.chain(["#YY  MM DD hh mm ss T   HEIGHT\n"], format_rows(
        _dart_row, _dart_stamps, series.timestamps,
        [np.asarray(series.values, dtype=float), np.asarray(series.flags) == FLAG_MISSING])))


def read_text(source) -> str:
    """The text of ``source``: a text stream, or a path read as UTF-8.  A
    path that cannot be opened or decoded raises ``DataError`` naming it."""
    if hasattr(source, "read"):
        return source.read()
    path = os.fspath(source)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


_ISO_TEMPLATE = np.array(["0000-00-00T00:00:00Z"]).view(np.uint32)


def _stamp_seconds(stamps):
    """Epoch seconds of ``YYYY-MM-DDTHH:MM:SSZ`` stamps (as ``iso8601``
    writes them), and the mask of the stamps that are not."""
    codes = np.array(stamps, dtype="U21").view(np.uint32).reshape(-1, 21)
    digits = codes[:, :20] - np.uint32(ord("0"))  # wraps above 9 below "0"
    bad = (codes[:, 20] != 0) | np.any(np.where(
        _ISO_TEMPLATE == ord("0"), digits > 9, codes[:, :20] != _ISO_TEMPLATE), axis=1)
    digits = np.where(bad[:, None], 0, digits).astype(np.int64)
    seconds, bad_date = _calendar(np.vstack([digits[:, :4] @ [1000, 100, 10, 1],
                                             (10 * digits[:, 5:18:3] + digits[:, 6:19:3]).T]))
    return seconds.astype(float), bad | bad_date


def _read_csv(lines, header, kinds) -> list:
    """The columns of a 6-column CSV's ``lines`` (leading ``#`` lines, ``header``,
    one row a line): stamp seconds, then ``kind(token)`` per value column, read
    ``CHUNK_ROWS`` lines at a time; the first faulty line (a malformed row,
    or a value that is not a finite number) raises ``ParseError``."""
    top = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    if lines[top:top + 1] != [header]:
        raise ParseError(f"expected the header {header!r}", top + 1)
    chunks = []
    for start in range(top + 1, len(lines), CHUNK_ROWS):
        rows = [line.split(",") for line in lines[start:start + CHUNK_ROWS]]
        count = len(rows)
        if set(map(len, rows)) - {6}:
            count = next(i for i, fields in enumerate(rows) if len(fields) != 6)
        tokens = list(itertools.chain.from_iterable(rows[:count]))
        seconds, fault = _stamp_seconds(tokens[0::6])
        chunks.append([seconds])
        for j, kind in enumerate(kinds, start=1):
            values, bad = _column(tokens[j::6], kind)
            chunks[-1].append(values)
            fault |= bad | ~np.isfinite(values)
        first = int(np.argmax(fault)) if fault.any() else count
        if first < len(rows):
            raise ParseError(f"not a row of {header}: {lines[start + first]!r}",
                             start + first + 1)
    return [np.concatenate(c) for c in zip(*chunks)] if chunks else [np.empty(0)] * 6


def write_cleaned_csv(out: CleanedOutput, destination) -> None:
    """CSV with 6-decimal floats and 0/1 anomaly flags, one row per sample."""
    columns = [np.asarray(c) for c in (out.raw, out.cleaned, out.spike, out.step, out.residual)]
    write_text(destination, itertools.chain(
        [CSV_HEADER + "\n"], format_rows(CSV_ROW.__mod__, iso8601, out.timestamps, columns)))


def read_cleaned_csv(source) -> CleanedOutput:
    """The CSV ``write_cleaned_csv`` writes, from a path or a text stream."""
    return CleanedOutput(*_read_csv(read_text(source).splitlines(), CSV_HEADER,
                                    (float, float, int, int, float)))


def write_ground_truth(truth, spec, destination) -> None:
    """The ground-truth CSV of a ``synth.GroundTruth`` made from ``spec``:
    clean and contaminated heights and 0/1 spike, step and gap flags."""
    flags = [np.isin(np.arange(len(truth.timestamps)), where).astype(int)
             for where in (truth.spike_indices, truth.step_locations, truth.gap_indices)]
    write_text(destination, itertools.chain(
        [f"# seed={spec.seed} cadence={spec.cadence}\n{TRUTH_HEADER}\n"],
        format_rows(TRUTH_ROW.__mod__, iso8601, truth.timestamps,
                    [truth.clean, truth.contaminated, *flags])))


def read_ground_truth(source) -> dict:
    """The CSV ``write_ground_truth`` writes, from a path or a text stream,
    its stamps as epoch seconds under ``timestamps``; the last ``cadence=``
    token of its leading ``#`` lines sets the cadence, a finite number of
    seconds > 0 (default 900 s)."""
    lines = read_text(source).splitlines()
    try:
        cadences = [float(token[8:])
                    for line in itertools.takewhile(lambda x: x.startswith("#"), lines)
                    for token in line[1:].split() if token.startswith("cadence=")]
    except ValueError as exc:
        raise ParseError(f"bad ground-truth cadence: {exc}") from None
    cadence = cadences[-1] if cadences else 900.0
    if not (cadence > 0 and np.isfinite(cadence)):
        raise ParseError(f"ground-truth cadence must be a finite number of seconds > 0, "
                         f"got {cadence}")
    stamps, clean, contaminated, spike, step, gap = _read_csv(lines, TRUTH_HEADER,
                                                              (float, float, int, int, int))
    if not len(clean):
        raise DataError(f"no ground-truth rows in {source}")
    return {"timestamps": stamps, "clean": clean, "contaminated": contaminated,
            "spike": spike.astype(bool), "step": step.astype(bool), "gap": gap.astype(bool),
            "cadence": cadence}


def save_checkpoint(model, stats, destination, hyperparameters=None) -> None:
    """Persist a model plus normalization stats as a versioned JSON document;
    each array is its shape and the base64 of its ``<f8`` bytes."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "architecture": dataclasses.asdict(model.config),
        "hyperparameters": hyperparameters or {},
        "norm_stats": {"mean": float(stats.mean), "std": float(stats.std)},
        "params": {name: {"shape": list(arr.shape), "data": base64.b64encode(
            np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")}
                   for name, arr in model.state.items()},
    }
    write_text(destination, json.dumps(doc))


def _object(doc: dict, key: str) -> dict:
    value = doc.get(key)
    if not isinstance(value, dict):
        raise DataError(f"checkpoint {key!r} must be a JSON object, "
                        f"got {type(value).__name__}")
    return value


def typed(value, like, key: str):
    """``value`` checked against ``like``, the field's default: an int for
    an int, any number but NaN for a float (returned as a float), a bool, a
    string, or a list for a tuple (returned as a tuple) of items like
    ``like[0]``."""
    if isinstance(like, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(typed(item, like[0], key) for item in value)
    if isinstance(like, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(like, (int, float)):
        numeric = (int,) if isinstance(like, int) else (int, float)
        ok = isinstance(value, numeric) and not isinstance(value, bool)
        kind = "an integer" if isinstance(like, int) else "a number"
    else:
        ok, kind = isinstance(value, type(like)), f"a {type(like).__name__}"
    if not ok or value != value:
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return float(value) if isinstance(like, float) else value


def build_section(cls, data: dict, path: str):
    """The dataclass ``cls`` from ``data``, every key known and ``typed``."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) under {path!r}: {sorted(unknown)}")
    return cls(**{key: typed(value, fields[key].default, f"{path}.{key}")
                  for key, value in data.items()})


def check_rules(config, path: str, rules):
    """Raise ``ConfigError`` naming ``path.key`` for the first key of
    ``rules``, a list of (keys, ok, rule) triples, whose value ``ok``
    rejects; ``rule`` says what the key must be."""
    for keys, ok, rule in rules:
        for key in keys:
            if not ok(getattr(config, key)):
                raise ConfigError(f"{path}.{key} must be {rule}, got {getattr(config, key)!r}")


# the most memory one config may ask for, in bytes: a constant, so that a
# config is valid or not whatever machine reads it
MEMORY_BUDGET = 4 << 30


def check_budget(key: str, nbytes: int, what: str):
    """Raise ``ConfigError`` naming ``key`` if ``nbytes`` is over budget."""
    if nbytes > MEMORY_BUDGET:
        raise ConfigError(f"{key} needs {nbytes:,} bytes for {what}, over the "
                          f"{MEMORY_BUDGET:,}-byte budget")


def _entry(name: str, value, version):
    """The shape of a ``params`` entry and its payload: the base64 string
    of a ``{"shape", "data"}`` object, or, in a version 1 or 2 file, the
    array of nested lists.  Nothing is decoded yet."""
    if isinstance(value, dict):
        shape, data = value.get("shape"), value.get("data")
        if not (isinstance(shape, list) and all(
                isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
            raise DataError(f"array {name!r}: 'shape' must be a list of integers >= 0, "
                            f"got {shape!r}")
        if not isinstance(data, str):
            raise DataError(f"array {name!r}: 'data' must be a base64 string, "
                            f"got {type(data).__name__}")
        return tuple(shape), data
    if version == 3:
        raise DataError(f"array {name!r} must be a JSON object of 'shape' and 'data', "
                        f"got {type(value).__name__}")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"array {name!r} is not a numeric array") from None
    return arr.shape, arr


def _decoded(name: str, shape: tuple, payload) -> np.ndarray:
    """The array of an ``_entry`` payload, whose shape has been checked."""
    if not isinstance(payload, str):
        return payload
    try:
        raw = base64.b64decode(payload, validate=True)
    except binascii.Error as exc:
        raise DataError(f"array {name!r}: 'data' is not base64: {exc}") from None
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise DataError(f"array {name!r}: 'data' holds {len(raw)} bytes, "
                        f"expected {size} for shape {list(shape)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def load_checkpoint(source):
    """Load a checkpoint; returns (Vae, NormStats).

    Validates the format version, the document's structure and every
    array shape before decoding any array's data and before building the
    model, so a corrupt file never yields a partially loaded network, and
    the memory a load takes never follows an architecture the arrays do
    not match.
    """
    from .model import ModelConfig, Vae, check_state, state_shapes
    from .preprocess import NormStats

    try:
        doc = json.loads(read_text(source))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid checkpoint JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"checkpoint must be a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if version not in READABLE_VERSIONS:
        raise DataError(f"unsupported checkpoint version {version!r}")
    try:
        config = build_section(ModelConfig, _object(doc, "architecture"), "model")
    except ConfigError as exc:
        raise DataError(f"checkpoint architecture: {exc}") from None
    entries = {name: _entry(name, value, version)
               for name, value in _object(doc, "params").items()}
    try:
        check_state({name: shape for name, (shape, _) in entries.items()},
                    state_shapes(config))
    except ShapeError as exc:
        raise ShapeError(f"checkpoint {source}: {exc}") from None
    arrays = {name: _decoded(name, shape, payload)
              for name, (shape, payload) in entries.items()}
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise DataError(f"corrupted numbers in array {name!r}")
    model = Vae(config, seed=0)
    model.load_state(arrays)
    norm = _object(doc, "norm_stats")
    try:
        stats = NormStats(mean=float(norm["mean"]), std=float(norm["std"]))
    except (KeyError, TypeError, ValueError):
        raise DataError("checkpoint 'norm_stats' needs numeric 'mean' and 'std'") from None
    return model, stats
