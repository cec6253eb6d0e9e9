import logging
from datetime import datetime

import numpy as np
import pytest

from bessim.errors import DomainError, IngestionError
from bessim.profiles import (
    SynthLoadSpec,
    load_profile_from_csv,
    load_profile_to_csv,
    synth_load,
)


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
