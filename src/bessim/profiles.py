"""Load-profile ingestion and synthesis.

The synthetic generator substitutes for unavailable historical utility
load data: a per-day double-peak template (Gaussian bumps and a night
valley on a base level) with weekly and seasonal modulation plus seeded
AR(1) multiplicative noise. All parameters are configuration, none are
measured values.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .errors import IngestionError, DomainError
from .scheduler import LoadProfile

log = logging.getLogger(__name__)

MAX_INTERPOLATED_GAP = 3  # samples


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


def synth_load(spec: SynthLoadSpec, seed: int,
               start_time: datetime | None = None) -> LoadProfile:
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
    start = start_time or datetime(2024, 1, 1)
    return LoadProfile(start_time=start, dt_s=spec.dt_s, values_w=values)


def load_profile_to_csv(profile: LoadProfile) -> str:
    """Serialize a profile to the documented `timestamp,load_w` CSV shape."""
    buf = io.StringIO()
    buf.write("timestamp,load_w\n")
    t = profile.start_time
    step = timedelta(seconds=profile.dt_s)
    for v in profile.values_w:
        buf.write(f"{t.isoformat()},{v:.6f}\n")
        t += step
    return buf.getvalue()


def load_profile_from_csv(path: str, expected_dt_s: float | None = None) -> LoadProfile:
    """Read and validate a `timestamp,load_w` CSV.

    Rows must be uniformly spaced; gaps of up to MAX_INTERPOLATED_GAP
    missing samples are linearly interpolated with a logged warning,
    longer gaps are rejected. Errors carry the offending row number
    (1-based, counting the header as row 1).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("empty file", row=1)
        if [h.strip().lower() for h in header] != ["timestamp", "load_w"]:
            raise IngestionError("header must be exactly 'timestamp,load_w'", row=1)
        times: list[datetime] = []
        values: list[float] = []
        rows = array("l")    # file row of each sample
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

    out_vals: list[float] = [values[0]]
    for i in range(1, len(times)):
        span = (times[i] - times[i - 1]).total_seconds()
        steps = span / dt
        if abs(steps - round(steps)) > 1e-6 or steps < 1:
            raise IngestionError("non-uniform sample spacing", row=rows[i])
        missing = int(round(steps)) - 1
        if missing > MAX_INTERPOLATED_GAP:
            raise IngestionError(
                f"gap of {missing} missing samples exceeds the "
                f"{MAX_INTERPOLATED_GAP}-sample interpolation limit",
                row=rows[i])
        if missing:
            log.warning("interpolating %d missing sample(s) before row %d",
                        missing, rows[i])
            for g in range(1, missing + 1):
                frac = g / (missing + 1)
                out_vals.append(values[i - 1] + frac * (values[i] - values[i - 1]))
        out_vals.append(values[i])
    return LoadProfile(start_time=times[0], dt_s=dt,
                       values_w=np.asarray(out_vals))
