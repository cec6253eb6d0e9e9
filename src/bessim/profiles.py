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
import re
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .errors import IngestionError, DomainError
from .plant import steps_per_day
from .scheduler import LoadProfile

log = logging.getLogger(__name__)

MAX_INTERPOLATED_GAP = 3  # samples
CSV_CHUNK_LINES = 8192    # CSV lines read and turned into arrays at a time

_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)

# A load CSV's timestamp, as README states it: YYYY-MM-DD, T or a space,
# HH:MM[:SS[.f]], then optionally Z, ±HH:MM[:SS[.f]] or ±HHMM[SS[.f]]; f is
# 1 to 6 digits, offset hours run to 23, offset minutes and seconds to 59.
_TIMESTAMP = re.compile(
    r"(?P<local>[0-9]{4}-[0-9]{2}-[0-9]{2}[T ][0-9]{2}:[0-9]{2}"
    r"(:[0-9]{2}(\.[0-9]{1,6})?)?)"
    r"(?P<zone>Z|[+-]([01][0-9]|2[0-3])(:[0-5][0-9](:[0-5][0-9](\.[0-9]{1,6})?)?"
    r"|[0-5][0-9]([0-5][0-9](\.[0-9]{1,6})?)?))?")


def _utc_offset(zone: str) -> timedelta:
    """The offset a _TIMESTAMP zone (Z or ±HH[:]MM...) names, read field by
    field: datetime.fromisoformat reads ±00:00:00.f as +00:00."""
    digits, _, fraction = zone[1:].replace(":", "").partition(".")
    h, m, s = (int(digits[i:i + 2] or 0) for i in (0, 2, 4))
    offset = timedelta(hours=h, minutes=m, seconds=s,
                       microseconds=int(fraction.ljust(6, "0")))
    return -offset if zone[0] == "-" else offset


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
        steps_per_day(self.dt_s)
        if not 0.0 <= self.noise_ar1 < 1.0:
            raise DomainError("noise_ar1 must lie in [0, 1)", field="noise_ar1")


def _gauss(hours: np.ndarray, center: float, sigma: float) -> np.ndarray:
    # wrap across midnight so a valley centered near 0 h is continuous
    d = np.minimum(np.abs(hours - center), 24.0 - np.abs(hours - center))
    return np.exp(-0.5 * (d / sigma) ** 2)


def synth_load(spec: SynthLoadSpec, seed: int) -> LoadProfile:
    """Deterministic synthetic load profile for the given seed."""
    rng = np.random.default_rng(seed)
    per_day = steps_per_day(spec.dt_s)
    hours = (np.arange(per_day) * spec.dt_s) / 3600.0
    # the three bumps, the same every day
    valley = _gauss(hours, spec.valley_hour, spec.valley_sigma_h)
    morning = _gauss(hours, spec.morning_hour, spec.morning_sigma_h)
    evening = _gauss(hours, spec.evening_hour, spec.evening_sigma_h)
    chunks = []
    ar, phi = 0.0, spec.noise_ar1
    innov_scale = math.sqrt(max(1.0 - spec.noise_ar1 ** 2, 1e-12))
    for d in range(spec.days):
        jit = 1.0 + spec.day_jitter * rng.uniform(-1.0, 1.0, size=3)
        shape = (spec.base_w - jit[0] * spec.valley_depth_w * valley
                 + jit[1] * spec.morning_peak_w * morning
                 + jit[2] * spec.evening_peak_w * evening)
        seasonal = 1.0 + spec.seasonal_amplitude * math.sin(2.0 * math.pi * d / 365.0)
        weekly = spec.weekend_factor if d % 7 >= 5 else 1.0
        day = shape * seasonal * weekly
        if spec.noise_rel > 0.0:
            noise = []
            for e in (rng.standard_normal(per_day) * innov_scale).tolist():
                ar = phi * ar + e
                noise.append(ar)
            day = day * (1.0 + spec.noise_rel * np.array(noise))
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

    The file is UTF-8; a leading byte-order mark is skipped, and a row
    holding a byte that is not UTF-8 is an error on that row. Timestamps,
    spaces stripped, match _TIMESTAMP and name times that exist; spacing
    is measured between them as datetime subtraction does, so offsets
    count (a +01:00 -> +02:00 change spaces evenly) and naive and
    offset-aware timestamps cannot be mixed. Rows must be uniformly spaced;
    gaps of up to MAX_INTERPOLATED_GAP missing samples are linearly
    interpolated with a logged warning, longer gaps are rejected. Errors
    carry the offending row number (1-based, counting the header and blank
    lines): row errors (column count, then timestamp, then load) come
    first, in file order, then spacing errors.

    The body is read as bytes, CSV_CHUNK_LINES lines at a time, and each
    block is turned into arrays; blocks of plain
    `YYYY-MM-DD[T ]HH:MM:SS[.ffffff],load` lines are converted column-wise,
    any other block row by row.
    """
    with open(path, "rb") as fh:
        head = fh.readline().removeprefix(_BOM)
        lines = _text_lines(head)
        blocks = _blocks(fh)
        records = csv.reader(
            chain(lines, chain.from_iterable(map(_text_lines, blocks))))
        header = next(records, None)
        if header is None:
            raise IngestionError("empty file", row=1)
        _check_utf8(header, 1)
        if [h.strip().lower() for h in header] != ["timestamp", "load_w"]:
            raise IngestionError("header must be exactly 'timestamp,load_w'", row=1)
        # a quoted header field may run past its line, and a lone CR ends
        # the header inside it: csv then reads the whole file
        whole = b'"' in head or len(lines) > 1
        first, us, aware, values, rows = _joined(
            _record_chunks(records, 2) if whole else _sample_chunks(blocks))
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
    uneven = steps < 1
    steps -= missing            # in place: these columns are file-sized
    uneven |= np.abs(steps, out=steps) > 1e-6
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


_BOM = b"\xef\xbb\xbf"


def _blocks(fh):
    """The rest of fh in blocks of CSV_CHUNK_LINES lines, as bytes; the
    file's last line may lack its newline. Each read asks for the last
    block's length, or for as much as is held until a block is whole."""
    data, size = b"", CSV_CHUNK_LINES
    while more := fh.read(max(size, len(data))):
        data += more
        eol = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
        start = 0
        for end in (eol[CSV_CHUNK_LINES - 1::CSV_CHUNK_LINES] + 1).tolist():
            yield data[start:end]
            start, size = end, end - start
        data = data[start:]
    if data:
        yield data


def _text_lines(data: bytes) -> list[str]:
    """The lines of data as a file opened in text mode with newline=""
    reads them (ended by \\n, \\r\\n or a lone \\r), decoded as UTF-8 with
    each byte that is not UTF-8 kept as a lone surrogate U+DC80-U+DCFF."""
    return [line.decode("utf-8", "surrogateescape")
            for line in data.splitlines(keepends=True)]


def _check_utf8(record: list[str], row: int) -> None:
    """Reject a csv record that holds a byte that is not UTF-8."""
    for field in record:
        if not field.isascii():
            for c in field:
                if "\udc80" <= c <= "\udcff":
                    raise IngestionError(
                        f"not UTF-8 at byte {ord(c) - 0xdc00:#04x}", row=row)


def _sample_chunks(blocks):
    """Samples of the body's blocks, the first line at file row 2; row
    errors are raised in file order."""
    row = 2
    for data in blocks:
        if b'"' in data:
            # a quoted field may hold line breaks: csv reads the rest
            lines = chain(_text_lines(data),
                          chain.from_iterable(map(_text_lines, blocks)))
            yield from _record_chunks(csv.reader(lines), row)
            return
        samples = _parse_plain(data, row)
        if samples is None:
            lines = _text_lines(data)
            samples = _parse_rows(csv.reader(lines), row)
            row += len(lines)
        else:
            row += samples.rows.size
        yield samples


def _record_chunks(records, row: int):
    """Samples of csv records, CSV_CHUNK_LINES at a time, the first at
    file row `row`."""
    while block := list(islice(records, CSV_CHUNK_LINES)):
        yield _parse_rows(block, row)
        row += len(block)


def _parse_rows(records, row: int) -> _Samples:
    """Check csv records one at a time, the first at file row `row`;
    records with only blank fields are skipped. A timestamp outside
    _TIMESTAMP or naming no real time (February 30) is unparseable."""
    first, us, aware, values, rows = None, [], [], [], []
    zones = {None: (None, 0)}           # zone -> (tzinfo, UTC offset in µs)
    for rownum, rec in enumerate(records, start=row):
        _check_utf8(rec, rownum)
        if not rec or all(not c.strip() for c in rec):
            continue
        if len(rec) != 2:
            raise IngestionError("expected two columns", row=rownum)
        match = _TIMESTAMP.fullmatch(rec[0].strip())
        try:
            if not match:
                raise ValueError
            ts = datetime.fromisoformat(match["local"])
        except ValueError:
            raise IngestionError(f"unparseable timestamp {rec[0]!r}", row=rownum)
        zone = match["zone"]
        if zone not in zones:
            offset = _utc_offset(zone)
            zones[zone] = timezone(offset), offset // _MICROSECOND
        tz, offset_us = zones[zone]
        try:
            v = float(rec[1])
        except ValueError:
            raise IngestionError(f"unparseable load {rec[1]!r}", row=rownum)
        if not math.isfinite(v) or v < 0:
            raise IngestionError("load must be finite and non-negative",
                                 row=rownum)
        if first is None:
            first = ts.replace(tzinfo=tz)
        us.append((ts - _EPOCH) // _MICROSECOND - offset_us)
        aware.append(tz is not None)
        values.append(v)
        rows.append(rownum)
    return _Samples(first, np.array(us, dtype=np.int64),
                    np.array(aware, dtype=bool), np.array(values, dtype=float),
                    np.array(rows, dtype=np.int64))


# Byte positions of the digits of `YYYY-MM-DDTHH:MM:SS`, and its separators.
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_DASHES, _COLONS = [4, 7], [13, 16]
# Widest load field the exact path takes: 15 digits and a point.
_EXACT_WIDTH = 16


def _window(b: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """b[s:s + width] for each s in starts, one column per start."""
    rows = np.lib.stride_tricks.sliding_window_view(b, width)[starts]
    return np.ascontiguousarray(rows.T)


def _parse_plain(data: bytes, row: int) -> _Samples | None:
    """Samples of lines that each read `<naive timestamp>,<load>`, the
    timestamp exactly `YYYY-MM-DD[T ]HH:MM:SS[.ffffff]`, converted
    column-wise; None unless every line does and passes every row check,
    which leaves blank lines, offsets, other timestamp forms, bytes that
    are not ASCII and all row errors (and the csv module's own, such as a
    field over its size limit) to _parse_rows. The data holds no quote."""
    if not data.isascii() or (b"\r" in data and
                              data.count(b"\r") != data.count(b"\r\n")):
        return None           # a lone CR ends a line
    if not data.endswith(b"\n"):
        data += b"\n"
    b = np.frombuffer(data, dtype=np.uint8)
    eol = np.flatnonzero(b == ord("\n"))
    comma = np.flatnonzero(b == ord(","))
    if comma.size != eol.size:
        return None
    bol = np.concatenate(([0], eol[:-1] + 1))
    end = eol - (b[eol - 1] == ord("\r"))     # the load field's end
    width = comma - bol
    fraction = width == 26
    if (not np.all(fraction | (width == 19))
            or np.any(end - comma > csv.field_size_limit())):
        return None
    # the timestamp template leaves no room for a line break, so with as
    # many commas as lines each line holds exactly one
    iso = _window(b, bol, 19)
    digits = iso[_DIGITS] - ord("0")     # uint8: below '0' wraps high
    sep = iso[10]
    if (digits.max() > 9 or np.any(iso[_DASHES] != ord("-"))
            or np.any(iso[_COLONS] != ord(":"))
            or not np.all((sep == ord("T")) | (sep == ord(" ")))):
        return None
    us = _wall_us(digits)
    if us is None:
        return None
    if fraction.any():
        frac = _window(b, bol[fraction] + 19, 7)
        frac_digits = frac[1:] - ord("0")
        if np.any(frac[0] != ord(".")) or frac_digits.max() > 9:
            return None
        us[fraction] += 10 ** np.arange(5, -1, -1) @ frac_digits
    values = _parse_loads(data, b, comma + 1, end)
    if values is None:
        return None
    return _Samples(datetime.fromisoformat(data[:comma[0]].decode()), us,
                    np.zeros(eol.size, dtype=bool), values,
                    np.arange(row, row + eol.size))


def _wall_us(digits: np.ndarray) -> np.ndarray | None:
    """µs since 1970-01-01 of `YYYY-MM-DD?HH:MM:SS` from its 14 digits (one
    row each), or None if any is not a date and time datetime accepts:
    year 0000, month 13, February 30, hour 24, second 60 and the like."""
    pairs = (digits[0::2] * 10 + digits[1::2]).astype(np.int64)
    year = pairs[0] * 100 + pairs[1]
    month, day, hour, minute, second = pairs[2:]
    if (not year.all() or month.min() < 1 or month.max() > 12
            or day.min() < 1 or hour.max() > 23 or minute.max() > 59
            or second.max() > 59):
        return None
    month_start = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    first_day = month_start.astype("datetime64[D]").astype(np.int64)
    days_in_month = ((month_start + 1).astype("datetime64[D]").astype(np.int64)
                     - first_day)
    if np.any(day > days_in_month):
        return None
    days = first_day + day - 1
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 10**6


def _parse_loads(data: bytes, b: np.ndarray, start: np.ndarray,
                 end: np.ndarray) -> np.ndarray | None:
    """The load fields data[start:end], each exactly float(field), or None
    if any is not a finite non-negative number.

    A field of digits with at most one point and at most 15 digits is
    N / 10**f, N its digits as an integer and f the digits after the
    point; N < 2**53 and 10**f are exact doubles, so one division rounds
    as float() does (Clinger's fast path). Any other field is read by
    float()."""
    width = end - start
    # the last _EXACT_WIDTH bytes of each field, one column per field; the
    # top rows of a shorter field's column hold bytes before it
    field = _window(b, end - _EXACT_WIDTH, _EXACT_WIDTH)
    out = (np.arange(_EXACT_WIDTH, dtype=np.uint8)[:, None]
           < np.clip(_EXACT_WIDTH - width, 0, _EXACT_WIDTH).astype(np.uint8))
    code = field - ord("0")            # uint8: below '0' wraps high
    digit = (code <= 9) & ~out
    point = (field == ord(".")) & ~out
    n_points = point.sum(axis=0, dtype=np.uint8)
    n_digits = width - n_points
    exact = (np.all(digit | point | out, axis=0) & (n_points <= 1)
             & (n_digits >= 1) & (n_digits <= 15))
    n = np.zeros(end.size, dtype=np.int64)
    for is_digit, value in zip(digit, code):
        np.multiply(n, 10, out=n, where=is_digit)
        np.add(n, value, out=n, where=is_digit)
    # digits after the point: the point's place counted from the right
    f = (point * np.arange(_EXACT_WIDTH - 1, -1, -1, dtype=np.uint8)[:, None]
         ).sum(axis=0, dtype=np.uint8)
    values = n / 10 ** np.where(exact, f, 0).astype(np.int64)  # one rounding
    for i in np.flatnonzero(~exact).tolist():
        try:
            values[i] = float(data[start[i]:end[i]].decode())
        except ValueError:
            return None
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        return None
    return values
