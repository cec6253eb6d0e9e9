import csv
import io
import logging
import math
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bessim import profiles
from bessim.errors import DomainError, IngestionError
from bessim.profiles import (
    SynthLoadSpec,
    load_profile_from_csv,
    load_profile_to_csv,
    synth_load,
)
from bessim.scheduler import LoadProfile


class TestSynthLoad:
    def test_same_seed_is_deterministic(self):
        spec = SynthLoadSpec(days=2)
        a = synth_load(spec, 42)
        b = synth_load(spec, 42)
        assert np.array_equal(a.values_w, b.values_w)

    def test_different_seeds_differ(self):
        spec = SynthLoadSpec(days=1)
        a = synth_load(spec, 1)
        b = synth_load(spec, 2)
        assert not np.array_equal(a.values_w, b.values_w)

    def test_noise_free_days_are_periodic(self):
        spec = SynthLoadSpec(days=3, noise_rel=0.0, day_jitter=0.0,
                             weekend_factor=1.0, seasonal_amplitude=0.0)
        p = synth_load(spec, 0)
        per_day = p.samples_per_day()
        days = p.values_w.reshape(3, per_day)
        assert np.allclose(days[0], days[1])
        assert np.allclose(days[0], days[2])

    def test_weekend_days_scaled_down(self):
        spec = SynthLoadSpec(days=7, noise_rel=0.0, day_jitter=0.0,
                             weekend_factor=0.9, seasonal_amplitude=0.0)
        p = synth_load(spec, 0)
        days = p.values_w.reshape(7, p.samples_per_day())
        assert np.allclose(days[5], 0.9 * days[0])

    def test_shape_has_valley_and_evening_peak(self):
        spec = SynthLoadSpec(days=1, noise_rel=0.0, day_jitter=0.0)
        p = synth_load(spec, 0)
        hours = np.arange(p.n_samples) * spec.dt_s / 3600.0
        i_min = int(np.argmin(p.values_w))
        i_max = int(np.argmax(p.values_w))
        assert abs(hours[i_min] - spec.valley_hour) < 1.0
        assert abs(hours[i_max] - spec.evening_hour) < 1.0

    def test_values_never_negative(self):
        spec = SynthLoadSpec(days=2, base_w=1e6, valley_depth_w=5e6,
                             noise_rel=0.2, noise_ar1=0.0)
        p = synth_load(spec, 3)
        assert np.all(p.values_w >= 0.0)

    def test_invalid_spec_rejected(self):
        with pytest.raises(DomainError):
            SynthLoadSpec(days=0)
        with pytest.raises(DomainError):
            SynthLoadSpec(noise_ar1=1.0)

    def test_step_not_dividing_a_day_rejected(self):
        with pytest.raises(DomainError) as e:
            SynthLoadSpec(dt_s=7.0)
        assert e.value.field == "dt_s"


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        spec = SynthLoadSpec(days=1, dt_s=300.0)
        p = synth_load(spec, 5)
        path = tmp_path / "load.csv"
        path.write_text(load_profile_to_csv(p))
        q = load_profile_from_csv(str(path))
        assert q.dt_s == p.dt_s
        assert q.start_time == p.start_time
        assert np.allclose(q.values_w, p.values_w, rtol=0, atol=1e-5)

    def test_expected_dt_mismatch_rejected(self, tmp_path):
        p = synth_load(SynthLoadSpec(days=1, dt_s=300.0), 5)
        path = tmp_path / "load.csv"
        path.write_text(load_profile_to_csv(p))
        with pytest.raises(IngestionError):
            load_profile_from_csv(str(path), expected_dt_s=60.0)


def _csv(rows):
    return "timestamp,load_w\n" + "\n".join(rows) + "\n"


class TestCsvValidation:
    def test_single_gap_interpolated_with_warning(self, tmp_path, caplog):
        rows = [
            "2024-01-01T00:00:00,10.0",
            "2024-01-01T00:01:00,20.0",
            # 00:02 missing
            "2024-01-01T00:03:00,40.0",
        ]
        path = tmp_path / "gap.csv"
        path.write_text(_csv(rows))
        with caplog.at_level(logging.WARNING, logger="bessim.profiles"):
            p = load_profile_from_csv(str(path))
        assert p.n_samples == 4
        assert p.values_w[2] == pytest.approx(30.0)
        assert any("interpolating" in r.message for r in caplog.records)

    def test_long_gap_rejected_with_row_number(self, tmp_path):
        rows = [
            "2024-01-01T00:00:00,10.0",
            "2024-01-01T00:01:00,20.0",
            "2024-01-01T00:06:00,40.0",  # 4 missing samples
        ]
        path = tmp_path / "gap.csv"
        path.write_text(_csv(rows))
        with pytest.raises(IngestionError) as e:
            load_profile_from_csv(str(path))
        assert e.value.row == 4

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,power\n2024-01-01T00:00:00,1.0\n")
        with pytest.raises(IngestionError) as e:
            load_profile_from_csv(str(path))
        assert e.value.row == 1

    def test_negative_load_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text(_csv(["2024-01-01T00:00:00,1.0",
                              "2024-01-01T00:01:00,-1.0"]))
        with pytest.raises(IngestionError) as e:
            load_profile_from_csv(str(path))
        assert e.value.row == 3

    def test_unparseable_timestamp_rejected(self, tmp_path):
        path = tmp_path / "ts.csv"
        path.write_text(_csv(["not-a-time,1.0",
                              "2024-01-01T00:01:00,1.0"]))
        with pytest.raises(IngestionError) as e:
            load_profile_from_csv(str(path))
        assert e.value.row == 2

    @pytest.mark.parametrize("offset", ["+01:60", "+01:99", "+0160",
                                        "-01:60", "+01:00:60"])
    def test_offset_field_of_60_or_more_rejected(self, tmp_path, offset):
        # outside the grammar; datetime.fromisoformat reads +01:60 as +02:00
        path = tmp_path / "ts.csv"
        path.write_text(_csv(["2024-01-01T00:00:00+01:00,1.0",
                              f"2024-01-01T00:01:00{offset},1.0"]))
        with pytest.raises(IngestionError) as e:
            load_profile_from_csv(str(path))
        assert e.value.row == 3
        assert str(e.value) == ("row 3: unparseable timestamp "
                                f"'2024-01-01T00:01:00{offset}'")

    @pytest.mark.parametrize("offset", ["+01:59", "-01:59", "+0159",
                                        "+01:59:59", "Z"])
    def test_offset_fields_below_60_load(self, tmp_path, offset):
        path = tmp_path / "ts.csv"
        path.write_text(_csv([f"2024-01-01T00:00:00{offset},1.0",
                              f"2024-01-01T00:01:00{offset},2.0"]))
        p = load_profile_from_csv(str(path))
        assert p.dt_s == 60.0 and p.values_w.tolist() == [1.0, 2.0]
        assert p.start_time == datetime.fromisoformat(
            f"2024-01-01T00:00:00{offset}")

    @pytest.mark.parametrize("offset,us", [
        ("+00:00:00.5", 500_000), ("-00:00:00.000001", -1),
        ("+000000.25", 250_000), ("-01:00:00.5", -3_600_500_000)])
    def test_offset_with_a_fraction_reads_as_written(self, tmp_path, offset,
                                                     us):
        # datetime.fromisoformat reads the zero ones as +00:00
        path = tmp_path / "ts.csv"
        path.write_text(_csv([f"2024-01-01T00:00:00{offset},1.0",
                              f"2024-01-01T00:01:00{offset},2.0"]))
        p = load_profile_from_csv(str(path))
        assert p.start_time.utcoffset() == timedelta(microseconds=us)
        assert p.start_time.replace(tzinfo=None) == datetime(2024, 1, 1)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestionError):
            load_profile_from_csv(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(_csv(["2024-01-01T00:00:00,1.0", "",
                              "2024-01-01T00:01:00,2.0"]))
        p = load_profile_from_csv(str(path))
        assert p.n_samples == 2
        assert p.start_time == datetime(2024, 1, 1)

    # (rows, expected dt, file row of the error); row 2 is the first line
    # after the header, blank lines included
    BLANK_ROW_CASES = [
        (["2024-01-01T00:00:00,1", "2024-01-01T00:01:00,1",
          "2024-01-01T00:02:00,1", "", "", "2024-01-01T00:02:30,1"], None, 7),
        (["", "2024-01-01T00:00:00,1", "2024-01-01T00:00:00,1"], None, 4),
        (["", "2024-01-01T00:00:00,1", "2024-01-01T00:02:00,1"], 60.0, 4),
        (["2024-01-01T00:00:00,1", "", "2024-01-01T00:01:00,1",
          "2024-01-01T00:06:00,1"], None, 5),
    ]

    @pytest.mark.parametrize("rows, expected_dt, row", BLANK_ROW_CASES,
                             ids=["spacing", "increasing", "expected_dt",
                                  "gap"])
    def test_error_rows_count_blank_lines(self, tmp_path, rows, expected_dt,
                                          row):
        path = tmp_path / "blank.csv"
        path.write_text(_csv(rows))
        with pytest.raises(IngestionError) as e:
            load_profile_from_csv(str(path), expected_dt)
        assert e.value.row == row

    def test_invalid_utf8_rejected_on_its_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(_csv(["2024-01-01T00:00:00,1",
                               "2024-01-01T00:01:00,1"]).encode()
                         .replace(b"00:01:00", b"00:01:\xff0"))
        with pytest.raises(IngestionError) as e:
            load_profile_from_csv(str(path))
        assert e.value.row == 3
        assert str(e.value) == "row 3: not UTF-8 at byte 0xff"

    def test_leading_bom_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + _csv(["2024-01-01T00:00:00,1",
                                                 "2024-01-01T00:01:00,2"]).encode())
        p = load_profile_from_csv(str(path))
        assert p.start_time == datetime(2024, 1, 1)
        assert p.values_w.tolist() == [1.0, 2.0]

    def test_interpolation_warning_names_file_row(self, tmp_path, caplog):
        path = tmp_path / "blank.csv"
        path.write_text(_csv(["2024-01-01T00:00:00,1", "",
                              "2024-01-01T00:01:00,1",
                              "2024-01-01T00:03:00,1"]))
        with caplog.at_level(logging.WARNING, logger="bessim.profiles"):
            load_profile_from_csv(str(path))
        assert [r.getMessage() for r in caplog.records] == [
            "interpolating 1 missing sample(s) before row 5"]


def _check_utf8(record, rownum):
    """The row error of a record holding a byte that is not UTF-8, which
    the surrogateescape handler reads as a lone surrogate U+DC80-U+DCFF."""
    for c in "".join(record):
        if "\udc80" <= c <= "\udcff":
            raise IngestionError(f"not UTF-8 at byte {ord(c) - 0xdc00:#04x}",
                                 row=rownum)


def _reference_stamp(stamp):
    """A timestamp of the grammar as a datetime: its wall time as
    datetime.fromisoformat reads it, and its offset read here, hours,
    minutes and seconds apart (fromisoformat reads ±00:00:00.f as
    +00:00)."""
    at = next((i for i in range(10, len(stamp)) if stamp[i] in "Z+-"),
              len(stamp))
    ts, zone = datetime.fromisoformat(stamp[:at]), stamp[at:]
    if not zone:
        return ts
    hms = zone[1:].replace(":", "") if zone != "Z" else "0000"
    offset = timedelta(hours=int(hms[:2]), minutes=int(hms[2:4]),
                       seconds=float(hms[4:] or 0))
    return ts.replace(tzinfo=timezone(-offset if zone[0] == "-" else offset))


def _csv_rows_reference(path, expected_dt_s=None):
    """load_profile_from_csv as a row loop over datetime objects: the oracle
    of the chunked, column-wise reader. Returns (start_time, dt_s, values).
    The file is UTF-8, a leading byte-order mark skipped; a timestamp
    outside the grammar is unparseable."""
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("empty file", row=1)
        _check_utf8(header, 1)
        if [h.strip().lower() for h in header] != ["timestamp", "load_w"]:
            raise IngestionError("header must be exactly 'timestamp,load_w'", row=1)
        times, values, rows = [], [], []
        for rownum, row in enumerate(reader, start=2):
            _check_utf8(row, rownum)
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise IngestionError("expected two columns", row=rownum)
            stamp = row[0].strip()
            try:
                if not profiles._TIMESTAMP.fullmatch(stamp):
                    raise ValueError
                ts = _reference_stamp(stamp)
            except ValueError:
                raise IngestionError(f"unparseable timestamp {row[0]!r}", row=rownum)
            try:
                v = float(row[1])
            except ValueError:
                raise IngestionError(f"unparseable load {row[1]!r}", row=rownum)
            if not math.isfinite(v) or v < 0:
                raise IngestionError("load must be finite and non-negative",
                                     row=rownum)
            times.append(ts)
            values.append(v)
            rows.append(rownum)
    if len(times) < 2:
        raise IngestionError("need at least two samples")
    aware = [t.utcoffset() is not None for t in times]

    def check_kind(i):
        if aware[i] != aware[0]:
            kinds = {False: "naive", True: "offset-aware"}
            raise IngestionError(
                f"timestamp is {kinds[aware[i]]} but the first sample's "
                f"(row {rows[0]}) is {kinds[aware[0]]}", row=rows[i])

    check_kind(1)
    dt = (times[1] - times[0]).total_seconds()
    if dt <= 0:
        raise IngestionError("timestamps must be strictly increasing", row=rows[1])
    if expected_dt_s is not None and abs(dt - expected_dt_s) > 1e-9:
        raise IngestionError(
            f"sample spacing {dt} s does not match expected {expected_dt_s} s",
            row=rows[1])
    out_vals = [values[0]]
    for i in range(1, len(times)):
        check_kind(i)
        span = (times[i] - times[i - 1]).total_seconds()
        steps = span / dt
        if abs(steps - round(steps)) > 1e-6 or steps < 1:
            raise IngestionError("non-uniform sample spacing", row=rows[i])
        missing = int(round(steps)) - 1
        if missing > profiles.MAX_INTERPOLATED_GAP:
            raise IngestionError(
                f"gap of {missing} missing samples exceeds the "
                f"{profiles.MAX_INTERPOLATED_GAP}-sample interpolation limit",
                row=rows[i])
        if missing:
            logging.getLogger("bessim.profiles").warning(
                "interpolating %d missing sample(s) before row %d",
                missing, rows[i])
            for g in range(1, missing + 1):
                frac = g / (missing + 1)
                out_vals.append(values[i - 1] + frac * (values[i] - values[i - 1]))
        out_vals.append(values[i])
    return times[0], dt, np.asarray(out_vals)


def _outcome(read, path, expected_dt_s, caplog):
    """What a reader makes of a file: its result or its error, and the
    warnings it logs."""
    caplog.clear()
    try:
        start, dt, values = read(path, expected_dt_s)
        result = ("ok", start, start.tzinfo, dt,
                  [v.hex() for v in values.tolist()])
    except (IngestionError, csv.Error) as e:
        result = ("error", type(e), str(e), getattr(e, "row", None))
    return result, [r.getMessage() for r in caplog.records]


def _new_reader(path, expected_dt_s):
    p = load_profile_from_csv(path, expected_dt_s)
    return p.start_time, p.dt_s, p.values_w


_T = "2024-01-01T00:{:02d}:00"
_SYNTH = load_profile_to_csv(synth_load(SynthLoadSpec(days=2, dt_s=300.0), 3))

# name: (file text, expected dt_s). The file text is written as UTF-8, a
# lone surrogate U+DC80-U+DCFF as the byte 0x80-0xff it stands for.
INGEST_CASES = {
    "synthetic": (_SYNTH, 300.0),
    "quoted": ('"timestamp","load_w"\n"2024-01-01T00:00:00","1.5"\n'
               '2024-01-01T00:01:00,"2,5"\n', None),
    "quoted_line_break": ("timestamp,load_w\n2024-01-01T00:00:00,1\n"
                          '"2024-01-01T00:01:00\n",2\n2024-01-01T00:02:00,3\n',
                          None),
    "crlf": (_csv([_T.format(i) + ",1.25" for i in range(4)]).replace(
        "\n", "\r\n"), 60.0),
    "lone_cr": ("timestamp,load_w\r2024-01-01T00:00:00,1\r"
                "2024-01-01T00:01:00,2\r", None),
    "dst_offset_change": (_csv(["2024-03-31T01:00:00+01:00,1",
                                "2024-03-31T01:30:00+01:00,2",
                                "2024-03-31T03:00:00+02:00,3",
                                "2024-03-31T03:30:00+02:00,4"]), 1800.0),
    "utc_z": (_csv(["2024-01-01T00:00:00Z,1", "2024-01-01T00:05:00Z,2"]),
              None),
    "fractional_seconds": (_csv(["2024-01-01T00:00:00,1",
                                 "2024-01-01T00:01:00.500000,2",
                                 "2024-01-01T00:02:01,3",
                                 "2024-01-01T00:03:01.5,4"]), 60.5),
    "space_separator": (_csv(["2024-01-01 00:00:00,1", "2024-01-01 00:01:00,2",
                              "2024-01-01 00:04:00,5"]), None),
    "blank_and_whitespace_lines": (_csv(["", "2024-01-01T00:00:00,1", "   ",
                                         " , ", "2024-01-01T00:01:00,2", "",
                                         "2024-01-01T00:03:00, 4 "]), None),
    "padded_and_other_forms": (_csv([" 2024-01-01T00:00:00 ,1",
                                     "2024-01-01T00:01,2", "2024-01-01 00:02,3",
                                     "2024-01-01T00:03:00.000,1_000"]), 60.0),
    # outside the grammar, though datetime.fromisoformat reads it
    "basic_format": (_csv([_T.format(0) + ",1", "20240101T000200,2"]), None),
    "bad_header": ("time,power\n2024-01-01T00:00:00,1\n", None),
    "empty_file": ("", None),
    "header_only": ("timestamp,load_w\n", None),
    "one_sample": (_csv(["", _T.format(0) + ",1"]), None),
    "three_columns": (_csv([_T.format(0) + ",1", _T.format(1) + ",1,2"]), None),
    "bad_timestamp": (_csv([_T.format(0) + ",1", "2024-02-30T00:00:00,1"]),
                      None),
    "leap_day": (_csv(["2024-02-29T23:59:00,1", "2024-03-01T00:00:00,2"]),
                 None),
    "not_a_leap_day": (_csv(["2023-02-28T23:59:00,1",
                             "2023-02-29T00:00:00,2"]), None),
    "hour_24": (_csv([_T.format(0) + ",1", "2024-01-01T24:00:00,1"]), None),
    "minute_60": (_csv([_T.format(0) + ",1", "2024-01-01T00:60:00,1"]), None),
    "second_60": (_csv([_T.format(0) + ",1", "2024-01-01T00:01:60,1"]), None),
    "month_13": (_csv([_T.format(0) + ",1", "2024-13-01T00:00:00,1"]), None),
    "day_0": (_csv([_T.format(0) + ",1", "2024-01-00T00:00:00,1"]), None),
    # numpy parses year 0000; datetime, and so the reader, does not
    "year_0": (_csv(["0000-12-31T23:59:00,1", "0001-01-01T00:00:00,1"]), None),
    "year_2000_leap_day": (_csv(["2000-02-28T00:00:00,1", "2000-02-29T00:00:00,1",
                                 "2000-03-01T00:00:00,1"]), None),
    "year_1900_not_a_leap_day": (_csv(["1900-02-28T00:00:00,1",
                                       "1900-02-29T00:00:00,1"]), None),
    "year_9999": (_csv(["9999-12-31T23:58:00,1", "9999-12-31T23:59:00.999999,1"]),
                  None),
    # a bad time in a plain block of hundreds of lines, which numpy 2.4's
    # cast from bytes to datetime64 cannot reject without crashing
    "synthetic_hour_24": (_SYNTH.replace("2024-01-02T05:00:00",
                                         "2024-01-02T24:00:00"), 300.0),
    "nul": ("timestamp,load_w\n2024-01-01T00:00:00,1\0\n"
            "2024-01-01T00:01:00,2\n", None),
    "cr_blank_line": ("timestamp,load_w\n2024-01-01T00:00:00,1\r\r\n"
                      "2024-01-01T00:01:00,1\n2024-01-01T00:01:30,1\n", None),
    "bad_load": (_csv([_T.format(0) + ",1", _T.format(1) + ",1.0W"]), None),
    "nan_load": (_csv([_T.format(0) + ",nan", _T.format(1) + ",1"]), None),
    "negative_load": (_csv([_T.format(0) + ",1", _T.format(1) + ",-1"]), None),
    "not_increasing": (_csv([_T.format(1) + ",1", _T.format(0) + ",1"]), None),
    "expected_dt": (_csv([_T.format(0) + ",1", _T.format(5) + ",1"]), 60.0),
    # spans beyond 2**53 microseconds (285 years) are not exact in float64
    "centuries_apart": (_csv(["1700-01-01T00:00:00,1", "2000-01-01T00:00:00,1",
                              "2300-01-01T00:00:00,1"]), None),
    "later_repeat": (_csv([_T.format(0) + ",1", _T.format(1) + ",1",
                           _T.format(1) + ",1"]), None),
    "later_backwards": (_csv([_T.format(0) + ",1", _T.format(1) + ",1",
                              _T.format(0) + ",1"]), None),
    "non_uniform": (_csv([_T.format(0) + ",1", _T.format(2) + ",1",
                          _T.format(5) + ",1"]), None),
    "gap_too_long": (_csv([_T.format(0) + ",1", _T.format(1) + ",1",
                           _T.format(3) + ",1", _T.format(9) + ",1"]), None),
    # two errors in one file: the earlier row wins, and any row error wins
    # over any spacing error, wherever it is
    "load_before_timestamp": (_csv([_T.format(0) + ",1", _T.format(1) + ",x",
                                    "nope,1"]), None),
    "timestamp_before_load": (_csv([_T.format(0) + ",1", "nope,x"]), None),
    "columns_before_timestamp": (_csv([_T.format(0) + ",1", "nope,1,2"]), None),
    "spacing_then_row_error": (_csv([_T.format(0) + ",1", _T.format(7) + ",1",
                                     _T.format(8) + ",-2"]), None),
    "gap_then_non_uniform": (_csv([_T.format(0) + ",1", _T.format(1) + ",1",
                                   _T.format(3) + ",1", _T.format(4) + ",1",
                                   _T.format(5) + ",1", "2024-01-01T00:05:30,1"]),
                             None),
    "invalid_utf8": (_csv([_T.format(0) + ",1", _T.format(1) + ",2\udcff",
                           _T.format(2) + ",3"]), None),
    "invalid_utf8_after_row_error": (_csv([_T.format(0) + ",x",
                                           _T.format(1) + ",\udce2"]), None),
    "invalid_utf8_in_header": ("timestamp,load_w\udcc3\n" + _T.format(0)
                               + ",1\n", None),
    "bom": ("\ufeff" + _SYNTH, 300.0),
    "bom_only": ("\ufeff", None),
    "bom_in_a_row": (_csv([_T.format(0) + ",1", "\ufeff" + _T.format(1) + ",1"]),
                     None),
    "non_ascii_load": (_csv([_T.format(0) + ",1", _T.format(1) + ",1\u00e9"]),
                       None),
}


class TestIngestEquivalence:
    """The chunked, column-wise reader gives the row loop's result (values
    bit for bit, start_time with its tzinfo, dt_s) or its error (message
    and row) and logs the same warnings, with one chunk per file and with
    chunks of two lines."""

    @pytest.mark.parametrize("chunk_lines", [2, profiles.CSV_CHUNK_LINES])
    @pytest.mark.parametrize("name", list(INGEST_CASES))
    def test_matches_row_loop(self, tmp_path, caplog, monkeypatch, name,
                              chunk_lines):
        text, expected_dt = INGEST_CASES[name]
        path = tmp_path / "load.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        monkeypatch.setattr(profiles, "CSV_CHUNK_LINES", chunk_lines)
        with caplog.at_level(logging.WARNING, logger="bessim.profiles"):
            want = _outcome(_csv_rows_reference, str(path), expected_dt, caplog)
            got = _outcome(_new_reader, str(path), expected_dt, caplog)
        assert got == want

    @pytest.mark.parametrize("rows, row", [
        (["", "2024-01-01T00:00:00,1", "2024-01-01T00:01:00,1",
          "2024-01-01T00:02:00+00:00,1", "2024-01-01T00:03:00,1"], 5),
        # an hour earlier than the first sample, were it subtracted
        (["", "2024-01-01T00:00:00,1", "2024-01-01T00:01:00+01:00,1"], 4)],
        ids=["later", "second_sample"])
    def test_mixed_naive_and_aware_rejected(self, tmp_path, rows, row):
        path = tmp_path / "mixed.csv"
        path.write_text(_csv(rows))
        with pytest.raises(IngestionError) as e:
            load_profile_from_csv(str(path))
        assert e.value.row == row
        assert str(e.value) == (f"row {row}: timestamp is offset-aware but "
                                "the first sample's (row 3) is naive")

    def test_spacing_error_before_mixed_row_wins(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(_csv(["2024-01-01T00:00:00+01:00,1",
                              "2024-01-01T00:01:00+01:00,1",
                              "2024-01-01T00:01:30+01:00,1",
                              "2024-01-01T00:02:00,1"]))
        with pytest.raises(IngestionError, match="non-uniform") as e:
            load_profile_from_csv(str(path))
        assert e.value.row == 4


# Byte strings the mutation property inserts or writes over a valid file:
# the csv module's own bytes (quote, comma, line ends), a NUL, bytes that
# are not UTF-8 or not ASCII, a byte-order mark, and pieces of other
# timestamp and number forms.
_MUTATIONS = [b"\x00", b"\xff", b"\x80", b"\xc3\xa9", b"\xef\xbb\xbf", b"\r",
              b"\n", b"\r\n", b'"', b",", b".", b"-", b"+", b"e", b"e1", b"_",
              b" ", b"0", b"7", b"inf", b":", b"T", b"Z", b"W"]
# The synthetic file stamped +01:00, which the row path reads.
_SYNTH_AWARE = load_profile_to_csv(LoadProfile(
    datetime(2024, 1, 1, tzinfo=timezone(timedelta(hours=1))), 300.0,
    synth_load(SynthLoadSpec(days=2, dt_s=300.0), 3).values_w))


@st.composite
def _mutated_csvs(draw):
    """A valid 2-day file, naive or stamped +01:00, with one to three byte
    strings inserted, deleted or written over."""
    data = bytearray(draw(st.sampled_from([_SYNTH, _SYNTH_AWARE])).encode())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        if how == "delete":
            del data[at:at + draw(st.integers(1, 3))]
            continue
        piece = draw(st.sampled_from(_MUTATIONS))
        data[at:at + (len(piece) if how == "replace" else 0)] = piece
    return bytes(data)


@st.composite
def _decimals(draw, max_digits=17):
    """Decimal fields `[0-9]*(.[0-9]*)?` of 1 to max_digits digits, leading
    zeros included, with the point anywhere (also `.5` and `5.`) or none."""
    digits = draw(st.text("0123456789", min_size=1, max_size=max_digits))
    point = draw(st.none() | st.integers(0, len(digits)))
    return digits if point is None else digits[:point] + "." + digits[point:]


# Other forms float() reads, and forms the row loop rejects.
_READ_FORMS = ["+{}", "{}e3", "{}E-2", " {} ", "{}\t", "1_{}", "-0", "1e300"]
_REJECTED_FORMS = ["-{}1", "inf", "nan", "-inf", "Infinity", "{}e", "{}..5",
                   "1__0", "", ".", "0x1p3", "{}W"]


class TestIngestBytes:
    """Whatever bytes a file holds, the reader gives the row loop's
    outcome: the profile (values by float.hex) or the error (message and
    row), and the same warnings, with blocks of 2, 7 and CSV_CHUNK_LINES
    lines."""

    @settings(max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_mutated_csvs(),
           chunk_lines=st.sampled_from([2, 7, profiles.CSV_CHUNK_LINES]))
    def test_mutated_file_matches_row_loop(self, tmp_path, caplog, data,
                                           chunk_lines):
        path = tmp_path / "load.csv"
        path.write_bytes(data)
        with (pytest.MonkeyPatch.context() as mp,
              caplog.at_level(logging.WARNING, logger="bessim.profiles")):
            mp.setattr(profiles, "CSV_CHUNK_LINES", chunk_lines)
            want = _outcome(_csv_rows_reference, str(path), None, caplog)
            got = _outcome(_new_reader, str(path), None, caplog)
        assert got == want


_US = timedelta(microseconds=1)


@st.composite
def _seconds(draw, second, us, plain=False):
    """`:SS[.f]` for second and us (µs), or "" where both are 0; f holds
    as many of the six digits of us as it needs, or more. A plain one, as
    the column-wise path takes it, has its seconds and all six digits or
    none."""
    if not (plain or second or us) and draw(st.booleans()):
        return ""
    digits = f"{us:06d}"
    if plain:
        places = 6 if us else draw(st.sampled_from([0, 6]))
    else:
        places = draw(st.integers(len(digits.rstrip("0")), 6))
    return f":{second:02d}" + (f".{digits[:places]}" if places else "")


@st.composite
def _offsets(draw):
    """A UTC offset under 24 h, often whole minutes, at times under a
    second (which datetime.fromisoformat reads as +00:00)."""
    day = 86_400 * 10**6
    us = draw(st.integers(-1439, 1439).map(lambda m: m * 60 * 10**6)
              | st.integers(-10**6, 10**6) | st.integers(1 - day, day - 1))
    return timedelta(microseconds=us)


@st.composite
def _offset_text(draw, offset):
    """offset as Z (if 0), ±HH:MM[:SS[.f]] or ±HHMM[SS[.f]]."""
    if not offset and draw(st.booleans()):
        return "Z"
    hours, us = divmod(abs(offset) // _US, 3600 * 10**6)
    minutes, us = divmod(us, 60 * 10**6)
    colon = draw(st.sampled_from([":", ""]))
    rest = draw(_seconds(us // 10**6, us % 10**6)).replace(":", colon)
    sign = "-" if offset < timedelta(0) else "+"
    return f"{sign}{hours:02d}{colon}{minutes:02d}{rest}"


# Timestamps just outside the grammar, of a wall time t and an offset z
# ("" if naive). datetime.fromisoformat reads each of them but the minute
# of 60, the missing day and, with no offset, the missing seconds. The
# minute of 60 fits the grammar's shape and names no time.
_NEAR_MISSES = {
    "date_alone": lambda t, z: f"{t:%Y-%m-%d}",
    "hour_alone": lambda t, z: f"{t:%Y-%m-%dT%H}{z}",
    "basic_format": lambda t, z: f"{t:%Y%m%dT%H%M%S}{z}",
    "week_date": lambda t, z: "{}-W{:02d}-{}T{:%H:%M}{}".format(
        *t.isocalendar(), t, z),
    "separator_X": lambda t, z: f"{t:%Y-%m-%dX%H:%M:%S}{z}",
    "separator_t": lambda t, z: f"{t:%Y-%m-%dt%H:%M:%S}{z}",
    "decimal_comma": lambda t, z: f"{t:%Y-%m-%dT%H:%M:%S},5{z}",
    "seven_digits": lambda t, z: f"{t:%Y-%m-%dT%H:%M:%S.%f}7{z}",
    "fraction_of_minutes": lambda t, z: f"{t:%Y-%m-%dT%H:%M}.5{z}",
    "space_before_offset": lambda t, z: f"{t:%Y-%m-%dT%H:%M:%S} {z or 'Z'}",
    "offset_hours_alone": lambda t, z: f"{t:%Y-%m-%dT%H:%M:%S}+01",
    "offset_minute_60": lambda t, z: f"{t:%Y-%m-%dT%H:%M:%S}+01:60",
    "minute_60": lambda t, z: f"{t:%Y-%m-%dT%H}:60{z}",
    "missing_day": lambda t, z: f"{t:%Y-%m}T{t:%H:%M:%S}{z}",
    "missing_seconds": lambda t, z: f"{t:%Y-%m-%dT%H:%M}:{z}",
}


@st.composite
def _stamped_files(draw):
    """The lines of a uniformly spaced load file, naive or offset-aware:
    each timestamp in a form of the grammar drawn for its row, with an
    offset drawn for its row, and at times one row's a near miss instead.
    Returns (lines, timestamps, each row's µs since 1970-01-01, UTC if
    aware, the near miss's index or None)."""
    aware = draw(st.booleans())
    plain = not aware and draw(st.booleans())
    start = draw(st.datetimes(datetime(1900, 1, 2), datetime(2100, 1, 1)))
    step = _US * draw(st.sampled_from([60 * 10**6, 1_500_000])
                      | st.integers(1, 86_400 * 10**6))
    n = draw(st.integers(2, 10))
    bad = draw(st.none() | st.integers(0, n - 1))
    lines, stamps, us = [], [], []
    for k in range(n):
        wall = start + k * step
        us.append((wall - datetime(1970, 1, 1)) // _US)
        zone = ""
        if aware:
            offset = draw(_offsets())
            wall += offset
            zone = draw(_offset_text(offset))
        if k == bad:
            stamp = _NEAR_MISSES[draw(st.sampled_from(list(_NEAR_MISSES)))](
                wall, zone)
        else:
            stamp = (f"{wall:%Y-%m-%d}{draw(st.sampled_from('T '))}"
                     f"{wall:%H:%M}"
                     + draw(_seconds(wall.second, wall.microsecond, plain))
                     + zone)
        stamps.append(stamp)
        lines.append(f'"{stamp}",{k}.5' if "," in stamp else f"{stamp},{k}.5")
    return lines, stamps, us, bad


class TestTimestampGrammar:
    """A timestamp in the grammar reads as the instant it names, on the row
    path and, where it takes the block, the column-wise path; a near miss
    is an unparseable timestamp on its row. The whole file reads as the
    row loop reads it, with blocks of 2, 7 and CSV_CHUNK_LINES lines."""

    @settings(max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_stamped_files(),
           chunk_lines=st.sampled_from([2, 7, profiles.CSV_CHUNK_LINES]))
    def test_paths_read_grammar_and_reject_near_misses(
            self, tmp_path, caplog, case, chunk_lines):
        lines, stamps, us, bad = case
        assert all(profiles._TIMESTAMP.fullmatch(s)
                   for k, s in enumerate(stamps) if k != bad)
        body = "".join(line + "\n" for line in lines)
        plain = profiles._parse_plain(body.encode(), 2)
        if bad is None:
            rows = profiles._parse_rows(csv.reader(io.StringIO(body)), 2)
            assert rows.us.tolist() == us
            assert plain is None or plain.us.tolist() == us
        else:
            assert plain is None
            with pytest.raises(IngestionError) as e:
                profiles._parse_rows(csv.reader(io.StringIO(body)), 2)
            assert str(e.value) == (f"row {bad + 2}: unparseable timestamp "
                                    f"{stamps[bad]!r}")
        path = tmp_path / "load.csv"
        path.write_text("timestamp,load_w\n" + body)
        with (pytest.MonkeyPatch.context() as mp,
              caplog.at_level(logging.WARNING, logger="bessim.profiles")):
            mp.setattr(profiles, "CSV_CHUNK_LINES", chunk_lines)
            want = _outcome(_csv_rows_reference, str(path), None, caplog)
            got = _outcome(_new_reader, str(path), None, caplog)
        assert got == want
        assert got[0][0] == ("ok" if bad is None else "error")


class TestExactDecimals:
    """Every load field reads as float(field), bit for bit, or is rejected
    with the row loop's error: decimals of up to 15 digits by the exact
    integer path, longer ones and every other form float() reads by
    float(), in one block."""

    @settings(max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=st.lists(_decimals() | st.sampled_from(_READ_FORMS).flatmap(
               lambda form: _decimals().map(form.format)), min_size=2,
               max_size=40),
           rejected=st.none() | st.tuples(
               st.integers(0, 39), st.sampled_from(_REJECTED_FORMS),
               _decimals()))
    def test_fields_read_as_float(self, tmp_path, caplog, fields, rejected):
        if rejected is not None:
            at, form, digits = rejected
            fields.insert(at % len(fields), form.format(digits))
        path = tmp_path / "load.csv"
        path.write_text(_csv([f"2024-01-01T{i // 60:02d}:{i % 60:02d}:00,{f}"
                              for i, f in enumerate(fields)]))
        with caplog.at_level(logging.WARNING, logger="bessim.profiles"):
            want = _outcome(_csv_rows_reference, str(path), 60.0, caplog)
            got = _outcome(_new_reader, str(path), 60.0, caplog)
        assert got == want
        if got[0][0] == "ok":
            assert got[0][4] == [float(f).hex() for f in fields]

    @pytest.mark.parametrize("field", [
        "0", "00", "0.0", ".5", "5.", "999999999999999", "99999999999999.9",
        ".999999999999999", "000000000000001", "9007199254740993",
        "0.1", "0.3", "123456789.123456", "29535718.290880",
        "1234567890123456", "0.30000000000000004"])
    def test_edge_decimals(self, tmp_path, field):
        path = tmp_path / "load.csv"
        path.write_text(_csv([_T.format(0) + ",1", _T.format(1) + "," + field]))
        assert load_profile_from_csv(str(path)).values_w[1].hex() == \
            float(field).hex()


class TestIngestMemory:
    def test_two_years_at_300_s_peak_below_10_mib(self, tmp_path):
        """A 730-day 300 s file as gen-load writes it (210,240 rows) is read
        holding one block of lines beside the columns it returns."""
        path = tmp_path / "load.csv"
        path.write_text(load_profile_to_csv(
            synth_load(SynthLoadSpec(days=730, dt_s=300.0), 1)))
        tracemalloc.start()
        try:
            profile = load_profile_from_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.n_samples == 730 * 288
        assert peak < 10 * 2**20


def _csv_text_reference(profile):
    """load_profile_to_csv as a row loop: the oracle of the bulk writer."""
    buf = io.StringIO()
    buf.write("timestamp,load_w\n")
    t = profile.start_time
    step = timedelta(seconds=profile.dt_s)
    for v in profile.values_w:
        buf.write(f"{t.isoformat()},{v:.6f}\n")
        t += step
    return buf.getvalue()


class TestCsvEmit:
    @pytest.mark.parametrize("start", [
        datetime(2024, 1, 1),
        datetime(2023, 12, 31, 23, 58, 30,
                 tzinfo=timezone(timedelta(hours=-3, minutes=-30)))],
        ids=["naive", "aware"])
    @pytest.mark.parametrize("dt_s", [60.0, 300.0, 60.5])
    def test_bytes_equal_row_loop(self, start, dt_s):
        values = synth_load(SynthLoadSpec(days=1, dt_s=300.0), 4).values_w
        profile = LoadProfile(start, dt_s, np.concatenate([values, values]))
        text = load_profile_to_csv(profile)
        assert text.encode() == _csv_text_reference(profile).encode()
        # microseconds only on the rows where they are nonzero
        fractional = {"." in line.split(",")[0]
                      for line in text.splitlines()[1:]}
        assert fractional == ({False, True} if dt_s == 60.5 else {False})

    @pytest.mark.parametrize("start", [
        datetime(2024, 1, 1),
        datetime(2024, 1, 1, tzinfo=timezone(timedelta(hours=5, minutes=30))),
        datetime(2024, 1, 1, tzinfo=timezone(-timedelta(hours=1, seconds=15))),
        datetime(2024, 1, 1,
                 tzinfo=timezone(timedelta(microseconds=500000)))],
        ids=["naive", "plus_05_30", "offset_seconds", "offset_half_second"])
    @pytest.mark.parametrize("dt_s", [60.0, 1.5])
    def test_stamps_in_grammar_read_back(self, tmp_path, start, dt_s):
        # values with 6 decimals, which the writer's %.6f keeps exactly
        values = np.array([float(f"{v:.6f}") for v in synth_load(
            SynthLoadSpec(days=1, dt_s=300.0), 4).values_w.tolist()])
        text = load_profile_to_csv(LoadProfile(start, dt_s, values))
        for line in text.splitlines()[1:]:
            assert profiles._TIMESTAMP.fullmatch(line.split(",")[0])
        path = tmp_path / "load.csv"
        path.write_text(text)
        back = load_profile_from_csv(str(path))
        assert (back.start_time, back.start_time.tzinfo, back.dt_s) == \
            (start, start.tzinfo, dt_s)
        assert back.values_w.tobytes() == values.tobytes()
