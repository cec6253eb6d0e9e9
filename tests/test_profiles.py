import csv
import io
import logging
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

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

    def test_interpolation_warning_names_file_row(self, tmp_path, caplog):
        path = tmp_path / "blank.csv"
        path.write_text(_csv(["2024-01-01T00:00:00,1", "",
                              "2024-01-01T00:01:00,1",
                              "2024-01-01T00:03:00,1"]))
        with caplog.at_level(logging.WARNING, logger="bessim.profiles"):
            load_profile_from_csv(str(path))
        assert [r.getMessage() for r in caplog.records] == [
            "interpolating 1 missing sample(s) before row 5"]


def _csv_rows_reference(path, expected_dt_s=None):
    """load_profile_from_csv as a row loop over datetime objects: the oracle
    of the chunked, column-wise reader. Returns (start_time, dt_s, values)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("empty file", row=1)
        if [h.strip().lower() for h in header] != ["timestamp", "load_w"]:
            raise IngestionError("header must be exactly 'timestamp,load_w'", row=1)
        times, values, rows = [], [], []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise IngestionError("expected two columns", row=rownum)
            try:
                ts = datetime.fromisoformat(row[0].strip())
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
    dt = (times[1] - times[0]).total_seconds()
    if dt <= 0:
        raise IngestionError("timestamps must be strictly increasing", row=rows[1])
    if expected_dt_s is not None and abs(dt - expected_dt_s) > 1e-9:
        raise IngestionError(
            f"sample spacing {dt} s does not match expected {expected_dt_s} s",
            row=rows[1])
    out_vals = [values[0]]
    for i in range(1, len(times)):
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
        result = ("ok", start, start.tzinfo, dt, values.tobytes())
    except (IngestionError, csv.Error) as e:
        result = ("error", type(e), str(e), getattr(e, "row", None))
    return result, [r.getMessage() for r in caplog.records]


def _new_reader(path, expected_dt_s):
    p = load_profile_from_csv(path, expected_dt_s)
    return p.start_time, p.dt_s, p.values_w


_T = "2024-01-01T00:{:02d}:00"
_SYNTH = load_profile_to_csv(synth_load(SynthLoadSpec(days=2, dt_s=300.0), 3))

# name: (file text, expected dt_s). The file text is written as is.
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
                                     "2024-01-01T00:01,2", "20240101T000200,3",
                                     "2024-01-01T00:03:00.000,1_000"]), 60.0),
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
        path.write_bytes(text.encode())
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
