"""Load-profile ingestion and synthesis.

The synthetic generator substitutes for unavailable historical utility
load data: a per-day double-peak template (Gaussian bumps and a night
valley on a base level) with weekly and seasonal modulation plus seeded
AR(1) multiplicative noise. All parameters are configuration, none are
measured values.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .errors import IngestionError, DomainError
from .scheduler import LoadProfile

log = logging.getLogger(__name__)

MAX_INTERPOLATED_GAP = 3  # samples
CSV_CHUNK_LINES = 8192    # CSV lines read and turned into arrays at a time

_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


@dataclass(frozen=True)
class SynthLoadSpec:
    """Parameters of the synthetic double-peak daily load template."""

    base_w: float = 30e6
    valley_depth_w: float = 9e6
    valley_hour: float = 3.5
    valley_sigma_h: float = 3.0
    morning_peak_w: float = 2.5e6
    morning_hour: float = 10.5
    morning_sigma_h: float = 1.5
    evening_peak_w: float = 6e6
    evening_hour: float = 19.5
    evening_sigma_h: float = 1.2
    noise_rel: float = 0.01          # AR(1) innovation scale, relative
    noise_ar1: float = 0.8           # AR(1) pole
    day_jitter: float = 0.08         # per-day bump amplitude jitter fraction
    weekend_factor: float = 0.93
    seasonal_amplitude: float = 0.05
    dt_s: float = 60.0
    days: int = 1

    def __post_init__(self):
        if self.days < 1:
            raise DomainError("days must be at least 1", field="days")
        if self.dt_s <= 0:
            raise DomainError("dt_s must be strictly positive", field="dt_s")
        if not 0.0 <= self.noise_ar1 < 1.0:
            raise DomainError("noise_ar1 must lie in [0, 1)", field="noise_ar1")


def _gauss(hours: np.ndarray, center: float, sigma: float) -> np.ndarray:
    # wrap across midnight so a valley centered near 0 h is continuous
    d = np.minimum(np.abs(hours - center), 24.0 - np.abs(hours - center))
    return np.exp(-0.5 * (d / sigma) ** 2)


def synth_load(spec: SynthLoadSpec, seed: int) -> LoadProfile:
    """Deterministic synthetic load profile for the given seed."""
    rng = np.random.default_rng(seed)
    per_day = int(round(86_400.0 / spec.dt_s))
    hours = (np.arange(per_day) * spec.dt_s) / 3600.0
    chunks = []
    ar = 0.0
    innov_scale = math.sqrt(max(1.0 - spec.noise_ar1 ** 2, 1e-12))
    for d in range(spec.days):
        jit = 1.0 + spec.day_jitter * rng.uniform(-1.0, 1.0, size=3)
        shape = (spec.base_w
                 - jit[0] * spec.valley_depth_w
                 * _gauss(hours, spec.valley_hour, spec.valley_sigma_h)
                 + jit[1] * spec.morning_peak_w
                 * _gauss(hours, spec.morning_hour, spec.morning_sigma_h)
                 + jit[2] * spec.evening_peak_w
                 * _gauss(hours, spec.evening_hour, spec.evening_sigma_h))
        seasonal = 1.0 + spec.seasonal_amplitude * math.sin(2.0 * math.pi * d / 365.0)
        weekly = spec.weekend_factor if d % 7 >= 5 else 1.0
        day = shape * seasonal * weekly
        if spec.noise_rel > 0.0:
            eps = rng.standard_normal(per_day) * innov_scale
            noise = np.empty(per_day)
            for i in range(per_day):
                ar = spec.noise_ar1 * ar + eps[i]
                noise[i] = ar
            day = day * (1.0 + spec.noise_rel * noise)
        chunks.append(day)
    values = np.maximum(np.concatenate(chunks), 0.0)
    return LoadProfile(start_time=datetime(2024, 1, 1), dt_s=spec.dt_s,
                       values_w=values)


def load_profile_to_csv(profile: LoadProfile) -> str:
    """Serialize a profile to the documented `timestamp,load_w` CSV shape.

    Row k is stamped `(start_time + k * timedelta(seconds=dt_s)).isoformat()`:
    microseconds appear only where they are nonzero, and an aware start's
    offset is on every row. Rows are formatted CSV_CHUNK_LINES at a time.
    """
    step = timedelta(seconds=profile.dt_s)
    parts = ["timestamp,load_w\n"]
    for a in range(0, profile.n_samples, CSV_CHUNK_LINES):
        values = profile.values_w[a:a + CSV_CHUNK_LINES].tolist()
        stamps = _iso_stamps(profile.start_time, step,
                             np.arange(a, a + len(values)))
        parts.append("".join(f"{t},{v:.6f}\n" for t, v in zip(stamps, values)))
    return "".join(parts)


def _iso_stamps(start: datetime, step: timedelta, k: np.ndarray) -> list[str]:
    """`(start + k * step).isoformat()` for each row index in k."""
    if start.tzinfo is not None and not isinstance(start.tzinfo, timezone):
        # a zone whose offset may change along the profile
        return [(start + i * step).isoformat() for i in k.tolist()]
    # the wall clock as its date and its time of day, each distinct one
    # formatted once
    wall = start.replace(tzinfo=None)
    midnight = datetime.combine(wall.date(), time())
    us = (wall - midnight) // _MICROSECOND + k * (step // _MICROSECOND)
    day, tod = np.divmod(us, 86_400_000_000)
    days, day_at = np.unique(day, return_inverse=True)
    tods, tod_at = np.unique(tod, return_inverse=True)
    offset = start.isoformat()[len(wall.isoformat()):]
    dates = np.array([date.fromordinal(wall.toordinal() + d).isoformat() + "T"
                      for d in days.tolist()], dtype=object)
    clocks = np.array([(midnight + u * _MICROSECOND).time().isoformat() + offset
                       for u in tods.tolist()], dtype=object)
    return (dates[day_at] + clocks[tod_at]).tolist()


class _Samples(NamedTuple):
    """Columns of the samples read from some CSV lines."""

    first: datetime | None   # the first sample's timestamp
    us: np.ndarray           # timestamps as µs since 1970-01-01 (UTC if aware)
    aware: np.ndarray        # timestamp carries an offset
    values: np.ndarray       # load (W)
    rows: np.ndarray         # file row (1-based, the header is row 1)


def load_profile_from_csv(path: str, expected_dt_s: float | None = None) -> LoadProfile:
    """Read and validate a `timestamp,load_w` CSV.

    Timestamps mean what datetime.fromisoformat makes of them; spacing is
    measured between them as datetime subtraction does, so offsets count
    (a +01:00 -> +02:00 change spaces evenly) and naive and offset-aware
    timestamps cannot be mixed. Rows must be uniformly spaced; gaps of up
    to MAX_INTERPOLATED_GAP missing samples are linearly interpolated with
    a logged warning, longer gaps are rejected. Errors carry the offending
    row number (1-based, counting the header and blank lines): row errors
    (column count, then timestamp, then load) come first, in file order,
    then spacing errors.

    The file is read CSV_CHUNK_LINES lines at a time and each chunk is
    turned into arrays; chunks of plain `YYYY-MM-DD[T ]HH:MM:SS[.ffffff],load`
    lines are converted column-wise, any other chunk row by row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("empty file", row=1)
        if [h.strip().lower() for h in header] != ["timestamp", "load_w"]:
            raise IngestionError("header must be exactly 'timestamp,load_w'", row=1)
        first, us, aware, values, rows = _joined(_sample_chunks(fh))
    # spacing is checked up to the first sample that cannot be subtracted
    # from the ones before it, which is rejected after that check
    differs = np.flatnonzero(aware != aware[0])
    n = int(differs[0]) if differs.size else us.size
    mixed = None
    if n < us.size:
        mixed = IngestionError(
            f"timestamp is {_AWARENESS[aware[n]]} but the first sample's "
            f"(row {rows[0]}) is {_AWARENESS[aware[0]]}", row=int(rows[n]))
        if n == 1:
            raise mixed
    dt = int(us[1] - us[0]) / 10**6       # timedelta.total_seconds()
    if dt <= 0:
        raise IngestionError("timestamps must be strictly increasing",
                             row=int(rows[1]))
    if expected_dt_s is not None and abs(dt - expected_dt_s) > 1e-9:
        raise IngestionError(
            f"sample spacing {dt} s does not match expected {expected_dt_s} s",
            row=int(rows[1]))
    gaps = _check_spacing(us[:n], rows, dt)
    if mixed is not None:
        raise mixed
    if gaps:
        at, fill = [], []
        for i, missing in gaps:
            a, b = float(values[i - 1]), float(values[i])
            for g in range(1, missing + 1):
                at.append(i)
                fill.append(a + g / (missing + 1) * (b - a))
        values = np.insert(values, at, fill)
    return LoadProfile(start_time=first, dt_s=dt, values_w=values)


_AWARENESS = {False: "naive", True: "offset-aware"}


def _joined(chunks) -> _Samples:
    """All chunks' samples in one set of columns."""
    chunks = list(chunks)
    if sum(c.values.size for c in chunks) < 2:
        raise IngestionError("need at least two samples")
    columns = list(zip(*chunks))
    chunks.clear()      # each column's pieces are freed once it is joined
    for i in range(1, len(columns)):
        columns[i] = np.concatenate(columns[i])
    return _Samples(next(t for t in columns[0] if t is not None), *columns[1:])


def _check_spacing(us: np.ndarray, rows: np.ndarray,
                   dt: float) -> list[tuple[int, int]]:
    """(sample index, missing samples before it) of every gap to fill;
    raises at the first spacing that is not a whole number of dt steps or
    leaves more than MAX_INTERPOLATED_GAP samples out, after warning about
    the gaps before it."""
    if us.max() - us.min() <= 2**53:       # every span exact in float64
        steps = np.diff(us) / 1e6
    else:
        steps = np.array([s / 10**6 for s in np.diff(us).tolist()])
    steps /= dt
    missing = np.round(steps)
    uneven = np.abs(steps - missing) > 1e-6
    uneven |= steps < 1
    missing -= 1
    failed = np.flatnonzero(uneven | (missing > MAX_INTERPOLATED_GAP))
    stop = int(failed[0]) if failed.size else steps.size
    gaps = [(i + 1, int(missing[i]))
            for i in np.flatnonzero(missing[:stop] > 0).tolist()]
    for i, m in gaps:
        log.warning("interpolating %d missing sample(s) before row %d",
                    m, rows[i])
    if failed.size:
        row = int(rows[stop + 1])
        if uneven[stop]:
            raise IngestionError("non-uniform sample spacing", row=row)
        raise IngestionError(
            f"gap of {int(missing[stop])} missing samples exceeds the "
            f"{MAX_INTERPOLATED_GAP}-sample interpolation limit", row=row)
    return gaps


def _sample_chunks(fh):
    """Samples of the lines left in fh, CSV_CHUNK_LINES lines at a time,
    starting at file row 2; row errors are raised in file order."""
    row = 2
    while lines := list(islice(fh, CSV_CHUNK_LINES)):
        text = "".join(lines)
        if '"' in text:
            # a quoted field may hold line breaks: csv reads the rest
            records = csv.reader(chain(lines, fh))
            while block := list(islice(records, CSV_CHUNK_LINES)):
                yield _parse_rows(block, row)
                row += len(block)
            return
        yield _parse_plain(text, row) or _parse_rows(csv.reader(lines), row)
        row += len(lines)


def _parse_rows(records, row: int) -> _Samples:
    """Check csv records one at a time, the first at file row `row`;
    records with only blank fields are skipped."""
    first, us, aware, values, rows = None, [], [], [], []
    for rownum, rec in enumerate(records, start=row):
        if not rec or all(not c.strip() for c in rec):
            continue
        if len(rec) != 2:
            raise IngestionError("expected two columns", row=rownum)
        try:
            ts = datetime.fromisoformat(rec[0].strip())
        except ValueError:
            raise IngestionError(f"unparseable timestamp {rec[0]!r}", row=rownum)
        try:
            v = float(rec[1])
        except ValueError:
            raise IngestionError(f"unparseable load {rec[1]!r}", row=rownum)
        if not math.isfinite(v) or v < 0:
            raise IngestionError("load must be finite and non-negative",
                                 row=rownum)
        offset = ts.utcoffset()
        t_us = (ts.replace(tzinfo=None) - _EPOCH) // _MICROSECOND
        if offset is not None:
            t_us -= offset // _MICROSECOND
        if first is None:
            first = ts
        us.append(t_us)
        aware.append(offset is not None)
        values.append(v)
        rows.append(rownum)
    return _Samples(first, np.array(us, dtype=np.int64),
                    np.array(aware, dtype=bool), np.array(values, dtype=float),
                    np.array(rows, dtype=np.int64))


# Byte positions of the digits of `YYYY-MM-DDTHH:MM:SS`, and its separators.
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_DASHES, _COLONS = [4, 7], [13, 16]
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _parse_plain(text: str, row: int) -> _Samples | None:
    """Samples of lines that each read `<naive timestamp>,<load>`, the
    timestamp exactly `YYYY-MM-DD[T ]HH:MM:SS[.ffffff]`, converted
    column-wise; None unless every line does and passes every row check,
    which leaves blank lines, offsets, other timestamp forms and all row
    errors (and the csv module's own, such as a NUL) to _parse_rows. The
    text holds no quote."""
    if text.count("\r") != text.count("\r\n"):
        return None           # a lone CR ends a line
    text = text.replace("\r\n", "\n")
    if not text.endswith("\n"):
        text += "\n"
    b = np.frombuffer(text.encode(), dtype=np.uint8)
    eol = np.flatnonzero(b == ord("\n"))
    comma = np.flatnonzero(b == ord(","))
    if comma.size != eol.size:
        return None
    bol = np.concatenate(([0], eol[:-1] + 1))
    width = comma - bol
    fraction = width == 26
    if (not np.all(fraction | (width == 19))
            or np.any(eol - comma > csv.field_size_limit())):
        return None
    # the timestamp template leaves no room for a line break, so with as
    # many commas as lines each line holds exactly one
    iso = b[bol[:, None] + np.arange(19)]
    digits = iso[:, _DIGITS] - ord("0")     # uint8: below '0' wraps high
    sep = iso[:, 10]
    if (digits.max() > 9 or np.any(iso[:, _DASHES] != ord("-"))
            or np.any(iso[:, _COLONS] != ord(":"))
            or not np.all((sep == ord("T")) | (sep == ord(" ")))):
        return None
    us = np.zeros(eol.size, dtype=np.int64)
    if fraction.any():
        frac = b[bol[fraction, None] + np.arange(19, 26)]
        frac_digits = frac[:, 1:] - ord("0")
        if np.any(frac[:, 0] != ord(".")) or frac_digits.max() > 9:
            return None
        us[fraction] = frac_digits @ 10 ** np.arange(5, -1, -1)
    pairs = digits.reshape(-1, 7, 2).astype(np.int64) @ [10, 1]
    year = pairs[:, 0] * 100 + pairs[:, 1]
    month, day, hour, minute, second = pairs[:, 2:].T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    if not np.all((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
                  & (hour <= 23) & (minute <= 59) & (second <= 59)):
        return None
    if np.any(day > _DAYS_IN_MONTH[month] + (leap & (month == 2))):
        return None
    fields = text.replace(",", "\n").split("\n")
    try:
        values = np.fromiter(map(float, fields[1::2]), dtype=float,
                             count=eol.size)
    except ValueError:
        return None
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        return None
    months = (year - 1970) * 12 + month - 1
    days = (months.astype("datetime64[M]").astype("datetime64[D]")
            .astype(np.int64) + day - 1)
    us += (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000
    return _Samples(datetime.fromisoformat(fields[0]), us,
                    np.zeros(eol.size, dtype=bool), values,
                    np.arange(row, row + eol.size))
