"""The array-at-a-time DART/CSV text layer against the per-row code it
replaced.

Each oracle below is the row-by-row implementation the package used
before its text layer worked a column at a time.  Parsed arrays are
compared by dtype and ``tobytes()``, text by ``==``; every fault a parse
can raise must match the oracle's exception type, message and line
number.  The two CSV readers are compared with the row-by-row readers of
``tests/oracles.py`` by dtype and ``np.array_equal``; their faults must
match the oracles' exception type and line number.
"""

import calendar
import io
import json
import re
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dartclean import cli, series_io
from dartclean.errors import DataError, ParseError
from dartclean.model import ModelConfig, Vae
from dartclean.preprocess import NormStats
from dartclean.series_io import (
    CHUNK_ROWS,
    CSV_HEADER,
    FLAG_MISSING,
    FLAG_VALID,
    SENTINEL,
    SENTINEL_TOL,
    TRUTH_HEADER,
    CleanedOutput,
    RawSeries,
)
from tests.oracles import oracle_read_cleaned_csv, oracle_read_ground_truth

FIRST_SECOND, LAST_SECOND = series_io.FIRST_SECOND, series_io.LAST_SECOND
# the first and last years, leap years by each of the Gregorian rules, and
# common years on both sides of a leap year
CALENDAR_YEARS = [1, 4, 100, 400, 1900, 2000, 2023, 2024, 9999]


def oracle_epoch_seconds(year, month, day, hour, minute, second):
    return datetime(year, month, day, hour, minute, second,
                    tzinfo=timezone.utc).timestamp()


def oracle_parse_dart_file(source) -> RawSeries:
    text = series_io.read_text(source)
    timestamps, values, flags = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 8:
            raise ParseError(f"expected 8 columns, found {len(parts)}", lineno)
        try:
            y, mo, d, h, mi, s, kind = (int(p) for p in parts[:7])
            height = float(parts[7])
        except ValueError as exc:
            raise ParseError(f"unparseable number: {exc}", lineno) from None
        if kind not in (1, 2, 3):
            raise ParseError(f"measurement type T must be 1, 2 or 3, found {parts[6]}", lineno)
        try:
            ts = oracle_epoch_seconds(y, mo, d, h, mi, s)
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


def oracle_emit_dart(series) -> str:
    lines = ["#YY  MM DD hh mm ss T   HEIGHT"]
    for ts, value, flag in zip(series.timestamps, series.values, series.flags):
        dt = datetime.fromtimestamp(float(ts), tz=timezone.utc)
        height = "9999.000" if flag == FLAG_MISSING else format(float(value), ".17g")
        lines.append(
            f"{dt.year:04d} {dt.month:02d} {dt.day:02d} "
            f"{dt.hour:02d} {dt.minute:02d} {dt.second:02d} 1 {height}"
        )
    return "\n".join(lines) + "\n"


def oracle_iso8601(ts) -> str:
    # the year zero-padded, as strftime's %Y does not pad it on glibc
    dt = datetime.fromtimestamp(float(ts), tz=timezone.utc)
    return f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}Z"


def oracle_write_cleaned_csv(out) -> str:
    buf = io.StringIO()
    buf.write(series_io.CSV_HEADER + "\n")
    for i in range(len(out.timestamps)):
        buf.write(
            f"{oracle_iso8601(out.timestamps[i])},{out.raw[i]:.6f},{out.cleaned[i]:.6f},"
            f"{int(out.spike[i])},{int(out.step[i])},{out.residual[i]:.6f}\n"
        )
    return buf.getvalue()


def write_csv(out) -> str:
    buf = io.StringIO()
    series_io.write_cleaned_csv(out, buf)
    return buf.getvalue()


def emit(series) -> str:
    buf = io.StringIO()
    series_io.emit_dart(series, buf)
    return buf.getvalue()


def assert_same_series(got, want):
    for name in ("timestamps", "values", "flags"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def outcome(fn, *args):
    """(exception type, message, line number) of a call that raises, or
    its result."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


def dart_line(y=2022, mo=1, d=1, h=0, mi=0, s=0, t=1, height="2584.25"):
    return f"{y:04d} {mo:02d} {d:02d} {h:02d} {mi:02d} {s:02d} {t} {height}"


def dart_text(n):
    """Header plus ``n`` rows at a 15-minute cadence from 2022-01-01."""
    series = RawSeries(timestamps=1640995200.0 + 900.0 * np.arange(n),
                       values=np.linspace(1.0, 2.0, n), flags=np.zeros(n, dtype=int))
    return oracle_emit_dart(series)


def edge_stamps():
    """Stamps whose fraction lies a few ulps around half a microsecond,
    near a carry into the next second and a borrow from the previous one,
    from pre-1970 to the last year ``datetime`` holds."""
    out = []
    for base in (0.0, 1.0, -1.0, 86400.0, -86400.0, 1640995200.0,
                 FIRST_SECOND + 86400.0, LAST_SECOND - 1.0):
        for us in (0.5, 1.5, 2.5, 499999.5, 500000.5, 999998.5, 999999.5):
            for sign in (1, -1):
                t = base + sign * us / 1e6
                out.extend(t + k * np.spacing(t) for k in range(-4, 5))
    return np.array(out)


class TestParse:
    def _same(self, text):
        want = outcome(oracle_parse_dart_file, io.StringIO(text))
        got = outcome(series_io.parse_dart_file, io.StringIO(text))
        if isinstance(want, RawSeries):
            assert isinstance(got, RawSeries), got
            assert_same_series(got, want)
        else:
            assert got == want
        return got

    @pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                   2 * CHUNK_ROWS + 1])
    def test_row_counts_around_the_chunk(self, n):
        assert len(self._same(dart_text(n))) == n

    def test_first_and_last_years_and_pre_1970(self):
        text = "\n".join([dart_line(1, 1, 1, 0, 0, 0), dart_line(1, 3, 1, 12, 30, 59),
                          dart_line(1969, 12, 31, 23, 59, 59), dart_line(1970, 1, 1),
                          dart_line(9999, 12, 31, 23, 59, 59)])
        self._same(text)

    def test_leap_days(self):
        self._same("\n".join([dart_line(1600, 2, 29), dart_line(2000, 2, 29),
                              dart_line(2024, 2, 29), dart_line(2024, 3, 1)]))
        self._same(dart_line(2024, 2, 29) + "\n" + dart_line(2025, 2, 29))
        assert self._same(dart_line(1900, 2, 29) + "\n")[0] is ParseError

    @pytest.mark.parametrize("year", CALENDAR_YEARS)
    def test_every_day_of_the_calendar(self, year):
        # days 0-32 of every month, each date alone, then the valid ones as one file
        lines = [dart_line(year, month, day, 23, 59, 59)
                 for month in range(1, 13) for day in range(33)]
        valid = [line for line in lines if isinstance(self._same(line + "\n"), RawSeries)]
        assert len(valid) == 365 + calendar.isleap(year)
        self._same("\n".join(valid) + "\n")

    @pytest.mark.parametrize("height", [
        "9999", "9999.000", "9999.000001", "9998.999999", "9999.0000010000001",
        "9998.9999989999999", repr(SENTINEL + SENTINEL_TOL), repr(SENTINEL - SENTINEL_TOL),
        repr(float(np.nextafter(SENTINEL + SENTINEL_TOL, np.inf))),
        repr(float(np.nextafter(SENTINEL - SENTINEL_TOL, -np.inf))),
        "-0.0", "0.0", "1e-320", "1_000.5", "-9999.0", "nan", "inf", "-inf", "NaN",
    ])
    def test_heights_near_the_sentinel_and_odd_floats(self, height):
        self._same(dart_line(height="1.0") + "\n" + dart_line(mi=15, height=height))

    def test_every_measurement_type(self):
        text = "\n".join(dart_line(mi=15 * k, t=t) for k, t in enumerate((1, 2, 3, "03")))
        assert len(self._same(text)) == 4

    def test_crlf_comments_blank_lines_and_tabs(self):
        text = ("#YY  MM DD hh mm ss T   HEIGHT\r\n"
                + dart_line() + "\r\n"
                + "# a comment between data rows\r\n\r\n   \r\n"
                + "\t" + dart_line(mi=15).replace(" ", "\t") + "  \r\n"
                + "  # indented comment\n"
                + dart_line(mi=30, height="9999.000") + "\r\n")
        assert len(self._same(text)) == 3

    def test_comment_lines_shift_line_numbers_across_chunks(self):
        lines = dart_text(CHUNK_ROWS + 50).splitlines()
        lines[CHUNK_ROWS + 10] = lines[CHUNK_ROWS + 10].replace(" 1 ", " 1 x ")
        lines[7:7] = ["# inserted", ""]
        got = self._same("\n".join(lines))
        assert got[0] is ParseError and got[2] == CHUNK_ROWS + 13

    @pytest.mark.parametrize("line, kind", [
        (dart_line() + " 7", "columns"),
        ("2022 01 01 00 00", "columns"),
        (dart_line().replace("2022", "20x2"), "number"),
        (dart_line().replace("2022", "2022.0"), "number"),
        (dart_line(height="2584,25"), "number"),
        (dart_line(2023, 2, 30), "date"),
        (dart_line(h=24), "date"),
        (dart_line(s=60), "date"),
        (dart_line(mo=13), "date"),
        (dart_line(y=0), "date"),
        (dart_line(y=10000), "date"),
        (dart_line(d=0), "date"),
        (dart_line(mi=-1), "date"),
        (dart_line(height="nan"), "non-finite"),
        (dart_line(height="-inf"), "non-finite"),
        (dart_line(t="xyz"), "number"),
        (dart_line(t=0), "measurement type"),
        (dart_line(t=4), "measurement type"),
        (dart_line(t="99999999999999999999"), "measurement type"),
        (dart_line(h=24, t=4), "measurement type"),
    ])
    def test_fault_parity(self, line, kind):
        # the fault is line 3, after the header and one good row
        text = "#header\n" + dart_line(2021, 12, 31) + "\n" + line + "\n"
        got = self._same(text)
        assert got[0] is ParseError and got[2] == 3
        assert kind in got[1]

    def test_year_beyond_c_int_raises_as_datetime_does(self):
        got = self._same(dart_line().replace("2022", "99999999999999999999") + "\n")
        assert got[0] is OverflowError

    @pytest.mark.parametrize("text", [
        "", "# header only\n", "\n\n  \n",
        dart_line(mi=15) + "\n" + dart_line(mi=15),
        dart_line(mi=15) + "\n" + dart_line(mi=0),
    ], ids=["empty", "header-only", "blank", "repeated", "backwards"])
    def test_whole_file_faults(self, text):
        assert self._same(text)[0] is DataError

    @pytest.mark.parametrize("first, second", [
        (dart_line(h=24), dart_line() + " 9"),
        (dart_line() + " 9", dart_line(h=24)),
        (dart_line(height="x"), dart_line(2023, 2, 30)),
        (dart_line(2023, 2, 30), dart_line(height="inf")),
        (dart_line(height="inf"), "2022 01"),
        (dart_line(h=24), dart_line().replace("2022", "99999999999999999999")),
        (dart_line(t=4), dart_line(height="inf")),
        (dart_line(s=60), dart_line(t=0)),
    ])
    @pytest.mark.parametrize("gap", [1, CHUNK_ROWS])
    def test_earlier_line_wins(self, first, second, gap):
        lines = dart_text(CHUNK_ROWS + gap + 20).splitlines()
        lines[5], lines[5 + gap] = first, second
        got = self._same("\n".join(lines))
        assert got[2] == 6

    def test_row_fault_beats_earlier_non_increasing_stamps(self):
        lines = dart_text(40).splitlines()
        lines[3] = lines[2]
        lines[30] = dart_line(s=60)
        got = self._same("\n".join(lines))
        assert got[0] is ParseError and got[2] == 31


class TestWrite:
    def test_iso8601_at_microsecond_rounding_edges(self):
        ts = edge_stamps()
        frac = (ts - np.trunc(ts)) * 1e6
        # the edges include exact halves at the carry and borrow points
        assert {999999.5, -0.5, -999999.5} <= set(frac.tolist())
        assert series_io.iso8601(ts) == [oracle_iso8601(t) for t in ts]

    def test_iso8601_first_years_and_pre_1970(self):
        ts = np.array([FIRST_SECOND, FIRST_SECOND + 0.4999, -31535999999.0, -1.0, -0.25,
                       0.0, 951782400.0, 1709164800.0, LAST_SECOND, LAST_SECOND + 0.4])
        assert series_io.iso8601(ts) == [oracle_iso8601(t) for t in ts]

    @pytest.mark.parametrize("stamp", [FIRST_SECOND - 1.0, FIRST_SECOND - 0.5,
                                       LAST_SECOND + 1.0, LAST_SECOND + 0.9999996,
                                       np.nan, np.inf, -np.inf, 1e300])
    def test_out_of_range_stamp_raises_as_fromtimestamp_does(self, stamp):
        ts = np.array([0.0, stamp, 1.0])
        want = outcome(lambda: [oracle_iso8601(t) for t in ts])
        assert isinstance(want, tuple)
        assert outcome(series_io.iso8601, ts) == want
        series = RawSeries(timestamps=ts, values=np.zeros(3), flags=np.zeros(3, dtype=int))
        assert outcome(emit, series) == outcome(oracle_emit_dart, series)

    def test_cleaned_csv_signed_zeros_and_non_finite(self):
        raw = np.array([0.0, -0.0, -0.0, np.nan, np.inf, -np.inf, 1e-7, -4e-7, 2584.0000005])
        cleaned = np.array([-0.0, 0.0, -0.0, 1.0, 3.0, np.inf, -1e-7, 0.0, 0.0])
        n = len(raw)
        out = CleanedOutput(timestamps=edge_stamps()[:n], raw=raw, cleaned=cleaned,
                            spike=np.arange(n) % 2, step=(np.arange(n) % 3 == 0))
        assert write_csv(out) == oracle_write_cleaned_csv(out)

    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_cleaned_csv_around_the_chunk(self, n, rng):
        out = CleanedOutput(timestamps=1640995200.0 + 900.0 * np.arange(n),
                            raw=rng.normal(2584.0, 0.3, n), cleaned=rng.normal(2584.0, 0.3, n),
                            spike=rng.integers(0, 2, n), step=rng.integers(0, 2, n))
        assert write_csv(out) == oracle_write_cleaned_csv(out)

    @pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_emit_around_the_chunk(self, n, rng):
        series = RawSeries(timestamps=-1e6 + 900.0 * np.arange(n),
                           values=rng.normal(0.0, 1e3, n),
                           flags=(rng.random(n) < 0.1).astype(int))
        assert emit(series) == oracle_emit_dart(series)

    def test_emit_edge_stamps_and_values(self):
        ts = edge_stamps()
        values = np.resize(np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 9999.0, 1e-320,
                                     0.1, 2584.123456789012345]), len(ts))
        flags = np.resize(np.array([FLAG_VALID, FLAG_MISSING, FLAG_VALID]), len(ts))
        series = RawSeries(timestamps=ts, values=values, flags=flags)
        assert emit(series) == oracle_emit_dart(series)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(steps=st.lists(st.integers(1, 10**7), min_size=1, max_size=300),
       start=st.integers(FIRST_SECOND, LAST_SECOND - 300 * 10**7),
       values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                 st.sampled_from([SENTINEL, SENTINEL + SENTINEL_TOL,
                                                  SENTINEL - 2 * SENTINEL_TOL, -0.0])),
                       min_size=300, max_size=300),
       missing=st.lists(st.booleans(), min_size=300, max_size=300))
def test_parse_emit_round_trip(steps, start, values, missing):
    n = len(steps)
    series = RawSeries(timestamps=(start + np.cumsum(steps)).astype(float),
                       values=np.array(values[:n]), flags=np.array(missing[:n], dtype=int))
    text = emit(series)
    assert text == oracle_emit_dart(series)
    got = series_io.parse_dart_file(io.StringIO(text))
    assert_same_series(got, oracle_parse_dart_file(io.StringIO(text)))
    assert got.timestamps.tobytes() == series.timestamps.tobytes()
    valid = got.flags == FLAG_VALID
    assert got.values[valid].tobytes() == series.values[valid].tobytes()


class TestWriteText:
    def test_replaces_the_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old")
        series_io.write_text(path, "new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_failed_write_is_data_error_naming_the_path(self, tmp_path, where):
        (tmp_path / "sub").mkdir()
        path = tmp_path / ("nope/out.csv" if where == "missing-dir" else "sub")
        with pytest.raises(DataError, match=re.escape(str(path))):
            series_io.write_text(path, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]
        assert list((tmp_path / "sub").iterdir()) == []

    def test_file_object_destination(self):
        buf = io.StringIO()
        series_io.write_text(buf, "abc")
        assert buf.getvalue() == "abc"

    def test_a_failing_row_leaves_every_destination_untouched(self, tmp_path):
        n = CHUNK_ROWS + 5
        ts = 1640995200.0 + 900.0 * np.arange(n)
        ts[-1] = np.nan  # raises in the second chunk, after the first is formatted
        out = CleanedOutput(timestamps=ts, raw=np.zeros(n), cleaned=np.zeros(n),
                            spike=np.zeros(n), step=np.zeros(n))
        path = tmp_path / "out.csv"
        path.write_text("old")
        with pytest.raises(ValueError, match="NaN"):
            series_io.write_cleaned_csv(out, path)
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        buf = io.StringIO()
        with pytest.raises(ValueError, match="NaN"):
            series_io.write_cleaned_csv(out, buf)
        assert buf.getvalue() == ""


def cleaned_csv_text(n, rng) -> str:
    return write_csv(CleanedOutput(
        timestamps=1640995200.0 + 900.0 * np.arange(n), raw=rng.normal(2584.0, 0.3, n),
        cleaned=rng.normal(2584.0, 0.3, n), spike=rng.integers(0, 2, n),
        step=rng.integers(0, 2, n)))


def truth_csv_text(n, rng) -> str:
    def flagged():
        return np.flatnonzero(rng.random(n) < 0.1)
    truth = SimpleNamespace(timestamps=-1e6 + 60.0 * np.arange(n),
                            clean=rng.normal(0.0, 1.0, n), contaminated=rng.normal(0.0, 1.0, n),
                            spike_indices=flagged(), step_locations=flagged(),
                            gap_indices=flagged())
    buf = io.StringIO()
    series_io.write_ground_truth(truth, SimpleNamespace(seed=4, cadence=60.0), buf)
    return buf.getvalue()


def assert_same_columns(got, want):
    got, want = (vars(x) if isinstance(x, CleanedOutput) else x for x in (got, want))
    assert got.keys() == want.keys()
    for name, b in want.items():
        a = got[name]
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


READERS = {
    "cleaned": (series_io.read_cleaned_csv, oracle_read_cleaned_csv, cleaned_csv_text),
    "truth": (series_io.read_ground_truth, oracle_read_ground_truth, truth_csv_text),
}


class TestReadCsv:
    def _same(self, reader, text):
        read, oracle, _ = READERS[reader]
        got, want = outcome(read, io.StringIO(text)), outcome(oracle, text)
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and got[0] is want[0] and got[2] == want[2], got
        else:
            assert_same_columns(got, want)
        return got

    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_row_counts_around_the_chunk(self, reader, n, rng):
        got = self._same(reader, READERS[reader][2](n, rng))
        if reader == "truth" and n == 0:
            assert got[0] is DataError
        else:
            assert len(got["clean"] if reader == "truth" else got.raw) == n

    def test_synth_and_clean_output(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({
            "output": str(tmp_path / "s.dart"), "ground_truth": str(tmp_path / "truth.csv"),
            "synth": {"n": 1500, "spike_count": 6, "step_count": 1, "step_min_separation": 400,
                      "gap_count": 3, "drift": "linear", "drift_rate": 1e-5, "seed": 5}}))
        assert cli.main(["synth", "--config", str(cfg)]) == 0
        truth = tmp_path / "truth.csv"
        got = self._same("truth", truth.read_text())
        assert_same_columns(series_io.read_ground_truth(truth), got)
        assert got["gap"].any() and got["spike"].any() and got["step"].any()
        model = Vae(ModelConfig(window=24, hidden=(8,), latent=4), seed=0)
        series_io.save_checkpoint(model, NormStats(0.0, 1.0), tmp_path / "ck.json")
        cfg.write_text(json.dumps({
            "input": str(tmp_path / "s.dart"), "checkpoint": str(tmp_path / "ck.json"),
            "output": str(tmp_path / "cleaned.csv"), "detect": {"w_s": 24, "w_l": 96},
            "refine": {"iterations": 2}}))
        assert cli.main(["clean", "--config", str(cfg)]) == 0
        self._same("cleaned", (tmp_path / "cleaned.csv").read_text())

    @pytest.mark.parametrize("fields, kind", [
        (3, "short"), (7, "long"), ({2: "x"}, "number"), ({5: "0.5.1"}, "number"),
        ({3: "1.0"}, "float-in-a-flag"), ({4: "one"}, "flag"),
    ])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_row_faults(self, reader, fields, kind, rng):
        lines = READERS[reader][2](5, rng).splitlines()
        bad = lines[-2].split(",")
        bad = bad[:fields] if fields == 3 else bad + ["0"] if fields == 7 else [
            fields.get(j, token) for j, token in enumerate(bad)]
        lines[-2] = ",".join(bad)
        got = self._same(reader, "\n".join(lines) + "\n")
        assert got[0] is ParseError and got[2] == len(lines) - 1

    @pytest.mark.parametrize("stamp", [
        "2022-1-01T00:30:00Z", "2022-01-01T0:30:00Z", "2022-01-01T00:30:00",
        "2022-01-01 00:30:00Z", " 2022-01-01T00:30:00Z", "2022-01-01T00:30:00.0Z",
        "2022-01-01T00:30:00z", "2022-02-30T00:30:00Z", "2022-01-01T24:00:00Z",
        "1900-02-29T00:00:00Z", "0000-01-01T00:00:00Z", "２022-01-01T00:30:00Z", "",
    ])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_only_the_stamps_iso8601_writes(self, reader, stamp):
        # the oracles took unpadded fields (strptime) or any stamp at all
        header = CSV_HEADER if reader == "cleaned" else TRUTH_HEADER
        text = f"{header}\n2022-01-01T00:00:00Z,1,1,0,0,0\n{stamp},1,1,0,0,0\n"
        got = outcome(READERS[reader][0], io.StringIO(text))
        assert got[0] is ParseError and got[2] == 3

    def test_stamps_of_the_first_and_last_years_and_leap_days(self):
        ts = np.array([-30610224000.0, -1.0, 0.0, 951782400.0, 1709164800.0,
                       series_io.LAST_SECOND])
        n = len(ts)
        out = CleanedOutput(timestamps=ts, raw=np.zeros(n), cleaned=np.ones(n),
                            spike=np.zeros(n, dtype=int), step=np.ones(n, dtype=int))
        text = write_csv(out)
        assert "1000-01-01T00:00:00Z" in text and "2024-02-29T00:00:00Z" in text
        got = self._same("cleaned", text)
        assert got.timestamps.tobytes() == ts.tobytes()

    @pytest.mark.parametrize("year", CALENDAR_YEARS)
    def test_every_day_of_the_calendar(self, year):
        # days 0-32 of every month, each date alone, then the valid ones as one file
        rows = [f"{year:04d}-{month:02d}-{day:02d}T23:59:59Z,1,1,0,0,0"
                for month in range(1, 13) for day in range(33)]
        valid = [row for row in rows if isinstance(
            self._same("cleaned", f"{CSV_HEADER}\n{row}\n"), CleanedOutput)]
        assert len(valid) == 365 + calendar.isleap(year)
        self._same("cleaned", "\n".join([CSV_HEADER, *valid]) + "\n")

    def test_year_below_1000_round_trips(self):
        ts = np.array([-31535999999.0, series_io.FIRST_SECOND, -30610224001.0])
        out = CleanedOutput(timestamps=ts, raw=np.zeros(3), cleaned=np.ones(3),
                            spike=np.zeros(3, dtype=int), step=np.ones(3, dtype=int))
        text = write_csv(out)
        assert text.splitlines()[1].startswith("0970-08-31T00:00:01Z,")
        assert "0001-01-01T00:00:00Z" in text and "0999-12-31T23:59:59Z" in text
        got = series_io.read_cleaned_csv(io.StringIO(text))
        assert got.timestamps.tobytes() == ts.tobytes()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "NaN", "1e999"])
    @pytest.mark.parametrize("reader, column", [
        ("cleaned", 1), ("cleaned", 2), ("cleaned", 5), ("truth", 1), ("truth", 2)])
    def test_non_finite_value_names_its_line(self, reader, column, value, rng):
        lines = READERS[reader][2](CHUNK_ROWS + 20, rng).splitlines()
        for at in (len(lines) - 5, 7):   # in the second chunk, then in the first too
            fields = lines[at].split(",")
            fields[column] = value
            lines[at] = ",".join(fields)
            got = outcome(READERS[reader][0], io.StringIO("\n".join(lines) + "\n"))
            assert got[0] is ParseError and got[2] == at + 1, got

    def test_leading_comment_lines(self, rng):
        text = truth_csv_text(3, rng)
        assert text.startswith("# seed=4 cadence=60.0\n")
        assert self._same("truth", "# site=x cadence=30\n#\n" + text)["cadence"] == 60.0
        assert self._same("truth", "# no cadence\n" + text.partition("\n")[2])["cadence"] == 900.0
        # the cleaned-CSV oracle read no comment lines; the array reader skips them
        text = cleaned_csv_text(3, rng)
        assert outcome(oracle_read_cleaned_csv, "# note\n" + text)[0] is ParseError
        assert_same_columns(series_io.read_cleaned_csv(io.StringIO("# note\n#\n" + text)),
                            oracle_read_cleaned_csv(text))

    @pytest.mark.parametrize("text, line", [
        ("", 1), ("# comment only\n", 2), ("time_iso8601,raw_m\n", 1),
        (TRUTH_HEADER + "\n", 1), (CSV_HEADER + "\n\n", 2),
        (CSV_HEADER + "\n2022-01-01T00:00:00Z,1,1,0,0,0\n# late comment\n", 3),
    ], ids=["empty", "comment-only", "short-header", "other-header", "blank-line",
            "late-comment"])
    def test_header_and_line_faults(self, text, line):
        got = outcome(series_io.read_cleaned_csv, io.StringIO(text))
        assert got[0] is ParseError and got[2] == line

    @pytest.mark.parametrize("gap", [1, CHUNK_ROWS])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_earlier_line_wins(self, reader, gap, rng):
        lines = READERS[reader][2](CHUNK_ROWS + gap + 20, rng).splitlines()
        for first, second in [(5, 5 + gap), (5 + gap, 5)]:
            bad = lines.copy()
            bad[first] = ",".join(bad[first].split(",")[:4])
            bad[second] = bad[second].replace(",", ",x", 1)
            got = self._same(reader, "\n".join(bad) + "\n")
            assert got[0] is ParseError and got[2] == min(first, second) + 1

    def test_bad_cadence(self, rng):
        # the oracle named the comment line too
        text = "# cadence=fast\n" + truth_csv_text(3, rng)
        assert outcome(oracle_read_ground_truth, text)[0] is ParseError
        assert outcome(series_io.read_ground_truth, io.StringIO(text))[0] is ParseError
        # eval's rate of change divides by the cadence: NaN would write a
        # report that is not JSON, -900 flip its sign, inf zero it, and 0
        # must not stand in for the 900 s default
        for cadence in ("nan", "-900", "inf", "0"):
            text = truth_csv_text(3, rng).replace("cadence=60.0", f"cadence={cadence}")
            assert outcome(oracle_read_ground_truth, text)[0] is ParseError, cadence
            got = outcome(series_io.read_ground_truth, io.StringIO(text))
            assert got[0] is ParseError and "cadence" in got[1], cadence
