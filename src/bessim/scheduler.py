"""Peak-shaving planning: cycle segmentation, the charge/discharge power
law, reference correction (per-cycle improved method and the day-level
symmetric baseline) and the peak-shaving performance metrics.

Planning works on the forecast load with perfect foresight (the forecast
equals the actual load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import DomainError, EmptyPlanError
from .plant import PlantConfig, steps_per_day

# Bisection convergence tolerance as a fraction of rated energy, and the
# iteration cap of the correction procedures.
CORRECTION_TOLERANCE_FRAC = 1e-3
CORRECTION_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class LoadProfile:
    """Uniformly sampled grid load time series."""

    start_time: datetime
    dt_s: float
    values_w: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values_w, dtype=float)
        object.__setattr__(self, "values_w", v)
        if self.dt_s <= 0:
            raise DomainError("dt_s must be strictly positive")
        if v.ndim != 1 or v.size == 0:
            raise DomainError("values_w must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise DomainError("load values must be finite and non-negative")

    @property
    def n_samples(self) -> int:
        return self.values_w.size

    def samples_per_day(self) -> int:
        return steps_per_day(self.dt_s)

    def split_days(self) -> list["LoadProfile"]:
        n = self.samples_per_day()
        days = []
        for d in range(math.ceil(self.n_samples / n)):
            chunk = self.values_w[d * n:(d + 1) * n]
            days.append(LoadProfile(self.start_time, self.dt_s, chunk))
        return days


@dataclass
class Interval:
    """Maximal run of charge- or discharge-eligible samples."""

    kind: str          # "charge" | "discharge"
    start: int         # sample index, inclusive
    stop: int          # sample index, exclusive
    ref_w: float       # reference level active on this interval


@dataclass
class ShavingCycle:
    index: int
    first_kind: str
    charge_interval: tuple[int, int] | None
    discharge_interval: tuple[int, int] | None
    p_chr_ref_w: float
    p_dis_ref_w: float
    feasible: bool = True

    def __post_init__(self):
        if self.p_chr_ref_w >= self.p_dis_ref_w:
            raise DomainError("cycle requires p_chr_ref < p_dis_ref")


@dataclass
class ShavingPlan:
    cycles: list[ShavingCycle]
    intervals: list[Interval]
    rated_power_w: float
    rated_energy_wh: float
    p_chr_ref0_w: float     # depth-defined initial references
    p_dis_ref0_w: float
    initial_energy_wh: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.initial_energy_wh <= self.rated_energy_wh:
            raise DomainError("initial energy must lie in [0, rated energy]",
                              field="initial_energy_wh")


@dataclass
class ShavingMetrics:
    cr: float
    rr: float
    cur: float
    power_utilization: float
    equivalent_cycles: float
    e_chr_wh: float
    e_dis_wh: float
    e_val_wh: float
    e_pek_wh: float


def demand_power(load_w: float, p_chr_ref_w: float, p_dis_ref_w: float,
                 soc: float, p_r_w: float,
                 soc_min: float = PlantConfig.soc_min,
                 soc_max: float = PlantConfig.soc_max) -> float:
    """Signed storage power demand (W) for one sample.

    Charging (positive, gated by soc < soc_max): full p_r below the taper
    band, p_chr_ref - load inside it, zero above the reference.
    Discharging (negative, gated by soc > soc_min): mirrored around
    p_dis_ref. Output always lies in [-p_r, +p_r]. The law is
    _interval_demand's, the one the plans and the run use.
    """
    if not (load_w >= 0):
        raise DomainError("load_w must be non-negative")
    if load_w < p_chr_ref_w:
        kind, ref_w, gated = "charge", p_chr_ref_w, soc >= soc_max
    elif load_w > p_dis_ref_w:
        kind, ref_w, gated = "discharge", p_dis_ref_w, soc <= soc_min
    else:
        return 0.0
    if gated:
        return 0.0
    return float(_interval_demand(load_w, kind, ref_w, p_r_w))


def _interval_demand(load: np.ndarray, kind: str, ref_w: float,
                     p_r_w: float) -> np.ndarray:
    """Ungated demand array (W, signed) for one interval at reference ref_w."""
    if kind == "charge":
        return np.clip(ref_w - load, 0.0, p_r_w)
    return -np.clip(load - ref_w, 0.0, p_r_w)


def _interval_energy_wh(load: np.ndarray, kind: str, ref_w: float,
                        p_r_w: float, dt_s: float) -> float:
    """Magnitude of the interval's demand energy (Wh) at reference ref_w."""
    return float(np.sum(np.abs(_interval_demand(load, kind, ref_w, p_r_w)))
                 * dt_s / 3600.0)


def segment_cycles(profile: LoadProfile, p_chr_ref_w: float,
                   p_dis_ref_w: float) -> list[ShavingCycle]:
    """Split the profile into alternating intervals and pair them into
    overlapping cycles (interval n with interval n+1).

    Dead-band samples (load between the references) attach to the preceding
    interval; leading dead samples attach to the first interval found.
    """
    intervals = segment_intervals(profile, p_chr_ref_w, p_dis_ref_w)
    return _pair_cycles(intervals, p_chr_ref_w, p_dis_ref_w)


def segment_intervals(profile: LoadProfile, p_chr_ref_w: float,
                      p_dis_ref_w: float) -> list[Interval]:
    if p_chr_ref_w >= p_dis_ref_w:
        raise DomainError("p_chr_ref must be below p_dis_ref")
    load = profile.values_w
    labels = np.where(load < p_chr_ref_w, 1,
                      np.where(load > p_dis_ref_w, -1, 0))
    labelled = np.flatnonzero(labels)
    if not labelled.size:
        raise EmptyPlanError("references produce no eligible interval")
    # dead-band samples inherit the preceding label; leading ones the first:
    # index each sample by the last labelled sample at or before it.
    last = np.where(labels != 0, np.arange(labels.size), labelled[0])
    filled = labels[np.maximum.accumulate(last)]
    bounds = [0, *(np.flatnonzero(np.diff(filled)) + 1).tolist(), filled.size]
    intervals: list[Interval] = []
    for start, stop in zip(bounds, bounds[1:]):
        kind = "charge" if filled[start] == 1 else "discharge"
        ref = p_chr_ref_w if kind == "charge" else p_dis_ref_w
        intervals.append(Interval(kind, start, stop, ref))
    return intervals


def _pair_cycles(intervals: list[Interval], p_chr_ref_w: float,
                 p_dis_ref_w: float) -> list[ShavingCycle]:
    cycles: list[ShavingCycle] = []
    if len(intervals) == 1:
        iv = intervals[0]
        span = (iv.start, iv.stop)
        cycles.append(ShavingCycle(
            index=1, first_kind=iv.kind,
            charge_interval=span if iv.kind == "charge" else None,
            discharge_interval=span if iv.kind == "discharge" else None,
            p_chr_ref_w=iv.ref_w if iv.kind == "charge" else p_chr_ref_w,
            p_dis_ref_w=iv.ref_w if iv.kind == "discharge" else p_dis_ref_w))
        return cycles
    for n in range(len(intervals) - 1):
        a, b = intervals[n], intervals[n + 1]
        chg = a if a.kind == "charge" else b
        dis = a if a.kind == "discharge" else b
        cycles.append(ShavingCycle(
            index=n + 1, first_kind=a.kind,
            charge_interval=(chg.start, chg.stop),
            discharge_interval=(dis.start, dis.stop),
            p_chr_ref_w=chg.ref_w, p_dis_ref_w=dis.ref_w))
    return cycles


def _bisect_ref(energy_fn, lo: float, hi: float, target_wh: float,
                tol_wh: float, increasing: bool) -> tuple[float, bool]:
    """Bisection for a monotone interval-energy function.

    Returns (reference, converged). If the target is outside the achievable
    range the nearest bound is returned with converged=False only when the
    bound undershoots a *required* target (caller decides feasibility).
    """
    e_lo, e_hi = energy_fn(lo), energy_fn(hi)
    lo_val, hi_val = (e_lo, e_hi) if increasing else (e_hi, e_lo)
    if target_wh >= hi_val - tol_wh:
        best = hi if increasing else lo
        return best, hi_val >= target_wh - tol_wh
    if target_wh <= lo_val + tol_wh:
        best = lo if increasing else hi
        return best, True
    a, b = lo, hi
    for _ in range(CORRECTION_MAX_ITERATIONS):
        mid = 0.5 * (a + b)
        e = energy_fn(mid)
        if abs(e - target_wh) <= tol_wh:
            return mid, True
        if (e < target_wh) == increasing:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), False


def correct_references_improved(profile: LoadProfile, p_r_w: float,
                                e_r_wh: float, p_chr_ref0_w: float,
                                p_dis_ref0_w: float,
                                initial_energy_wh: float = 0.0) -> ShavingPlan:
    """Per-cycle reference correction.

    Walks the day's intervals in order, tracking planned stored energy E in
    [0, e_r]. Each interval's reference is corrected against the next
    interval of its cycle: overcharge lowers the charge reference,
    undercharge (room left and the paired discharge wants more) raises it;
    over-discharge raises the discharge reference, under-discharge (the
    paired charge would overflow) lowers it. Each correction is a bisection
    capped at CORRECTION_MAX_ITERATIONS; a cycle that cannot be brought
    inside [0, e_r] within tolerance is flagged infeasible, not raised.
    """
    intervals = segment_intervals(profile, p_chr_ref0_w, p_dis_ref0_w)
    tol = CORRECTION_TOLERANCE_FRAC * e_r_wh
    load = profile.values_w
    lo_bound = float(load.min())
    hi_bound = float(load.max())
    gap = max(1e-6 * (hi_bound - lo_bound), 1e-6)
    feasible_flags = []
    energy = float(initial_energy_wh)

    for idx, iv in enumerate(intervals):
        nxt = intervals[idx + 1] if idx + 1 < len(intervals) else None

        def e_iv(r, seg=load[iv.start:iv.stop], kind=iv.kind):
            return _interval_energy_wh(seg, kind, r, p_r_w, profile.dt_s)
        e_next = (_interval_energy_wh(load[nxt.start:nxt.stop], nxt.kind,
                                      nxt.ref_w, p_r_w, profile.dt_s)
                  if nxt is not None else 0.0)
        e_now = e_iv(iv.ref_w)
        ok = True
        if iv.kind == "charge":
            if energy + e_now > e_r_wh + tol:
                # overcharge: reduce the charge reference; no room at all
                # means the cycle cannot be honored
                iv.ref_w, ok = _bisect_ref(e_iv, lo_bound, iv.ref_w,
                                           e_r_wh - energy, tol, True)
                ok = ok and e_r_wh - energy > tol
            elif energy + e_now < e_next and energy + e_now < e_r_wh - tol:
                # undercharge: raise the charge reference toward the next
                # interval's demand, bounded by capacity and the discharge ref
                hi = (nxt.ref_w if nxt is not None else p_dis_ref0_w) - gap
                target = min(e_next, e_r_wh) - energy
                if hi > iv.ref_w:
                    iv.ref_w, _ = _bisect_ref(e_iv, iv.ref_w, hi, target,
                                              tol, True)
            energy = min(energy + e_iv(iv.ref_w), e_r_wh)
        else:
            if e_now > energy + tol:
                # over-discharge: raise the discharge reference; an empty
                # store means the cycle cannot be honored
                iv.ref_w, ok = _bisect_ref(e_iv, iv.ref_w, hi_bound,
                                           energy, tol, False)
                ok = ok and energy > tol
            elif energy - e_now + e_next > e_r_wh + tol and energy - e_now > tol:
                # under-discharge: lower the discharge reference so the next
                # charge interval does not overflow capacity
                lo = (nxt.ref_w if nxt is not None else p_chr_ref0_w) + gap
                target = energy + e_next - e_r_wh
                if lo < iv.ref_w:
                    iv.ref_w, _ = _bisect_ref(e_iv, lo, iv.ref_w, target,
                                              tol, False)
            energy = max(energy - e_iv(iv.ref_w), 0.0)
        feasible_flags.append(ok)

    cycles = _pair_cycles(intervals, p_chr_ref0_w, p_dis_ref0_w)
    for n, cyc in enumerate(cycles):
        flags = feasible_flags[n:n + 2] if len(intervals) > 1 else feasible_flags
        cyc.feasible = all(flags)
    return ShavingPlan(
        cycles=cycles, intervals=intervals,
        rated_power_w=p_r_w, rated_energy_wh=e_r_wh,
        p_chr_ref0_w=p_chr_ref0_w, p_dis_ref0_w=p_dis_ref0_w,
        initial_energy_wh=initial_energy_wh)


def correct_references_original(profile: LoadProfile, p_r_w: float,
                                e_r_wh: float, p_chr_ref0_w: float,
                                p_dis_ref0_w: float,
                                initial_energy_wh: float = 0.0) -> ShavingPlan:
    """Day-granularity baseline: one symmetric reference pair per day.

    The references are corrected so daily charge energy equals daily
    discharge energy at the largest symmetric target the day allows:
    min(maximum capturable valley energy, maximum releasable peak energy,
    e_r), with each reference allowed to advance into the load up to the
    daily mid-level. Over-adjustment relative to the depth-defined
    references is characteristic of this baseline.
    """
    load = profile.values_w
    lo, hi = float(load.min()), float(load.max())
    mid = 0.5 * (lo + hi)
    gap = 0.005 * (hi - lo)
    tol = CORRECTION_TOLERANCE_FRAC * e_r_wh

    def e_chr(r):
        return _interval_energy_wh(load, "charge", r, p_r_w, profile.dt_s)

    def e_dis(r):
        return _interval_energy_wh(load, "discharge", r, p_r_w, profile.dt_s)

    chr_hi = max(mid - gap, p_chr_ref0_w)
    dis_lo = min(mid + gap, p_dis_ref0_w)
    target = min(e_chr(chr_hi), e_dis(dis_lo), e_r_wh)
    r_chr, ok_c = _bisect_ref(e_chr, lo, chr_hi, target, tol, True)
    r_dis, ok_d = _bisect_ref(e_dis, dis_lo, hi, target, tol, False)

    intervals = segment_intervals(profile, r_chr, r_dis)
    cycles = _pair_cycles(intervals, r_chr, r_dis)
    for cyc in cycles:
        cyc.feasible = ok_c and ok_d
    return ShavingPlan(
        cycles=cycles, intervals=intervals,
        rated_power_w=p_r_w, rated_energy_wh=e_r_wh,
        p_chr_ref0_w=p_chr_ref0_w, p_dis_ref0_w=p_dis_ref0_w,
        initial_energy_wh=initial_energy_wh)


def depth_references(profile: LoadProfile, power_depth_w: float) -> tuple[float, float]:
    """Depth-defined initial references: min + depth and max - depth."""
    lo, hi = float(profile.values_w.min()), float(profile.values_w.max())
    if hi - lo <= 2.0 * power_depth_w:
        raise DomainError(
            "daily load range must exceed twice the power depth for the "
            "references to bracket the load")
    return lo + power_depth_w, hi - power_depth_w


def replay_plan(plan: ShavingPlan, profile: LoadProfile,
                gated: bool = True) -> dict:
    """Execute a plan against the load with an ideal plant.

    Returns the demand series (W, signed) and the planned stored-energy
    trace. With gated=True the store e stays inside [0, e_r], e_r =
    rated_energy_wh, mirroring the SoC gate of the power law at plan level:
    of the sample energies d = demand * step_h, a charging one (d > 0) with
    e + d > e_r takes d = e_r - e and leaves e = e_r, any other with
    e + d < 0 takes d = -e and leaves e = 0.0, and the rest add d. Each
    demand comes back as d / step_h, and the unclamped demand (demand_w of
    gated=False) as demanded_w.
    """
    demand = np.zeros(profile.n_samples)
    for iv in plan.intervals:
        demand[iv.start:iv.stop] = _interval_demand(
            profile.values_w[iv.start:iv.stop], iv.kind, iv.ref_w,
            plan.rated_power_w)
    step_wh = profile.dt_s / 3600.0
    energy = np.empty(profile.n_samples + 1)
    energy[0] = plan.initial_energy_wh
    if not gated:
        energy[1:] = plan.initial_energy_wh + np.cumsum(demand) * step_wh
        return {"demand_w": demand, "energy_wh": energy}
    e_r = plan.rated_energy_wh
    d_wh = demand * step_wh
    # An interval's samples all push one way (charge demand >= 0, discharge
    # <= 0), so its bound binds at most once: a running sum from the store,
    # in the sample loop's order, up to the first sample passing the bound.
    # The store then stays there; a charge too small to move it keeps its d.
    for iv in plan.intervals:
        d = d_wh[iv.start:iv.stop]
        trace = energy[iv.start:iv.stop + 1]    # trace[0]: the store so far
        trace[1:] = d
        np.add.accumulate(trace, out=trace)
        charge = iv.kind == "charge"
        passed = trace[1:] > e_r if charge else trace[1:] < 0.0
        k = int(passed.argmax())
        if not passed[k]:
            continue
        rest = d[k + 1:]
        if charge:
            d[k] = e_r - trace[k]
            rest[e_r + rest > e_r] = 0.0
        else:
            d[k] = -trace[k]
            rest[rest < 0.0] = -0.0
        trace[k + 1:] = e_r if charge else 0.0
    return {"demand_w": d_wh / step_wh, "energy_wh": energy,
            "demanded_w": demand}


def compute_metrics(profile: LoadProfile, plan: ShavingPlan,
                    executed_w: np.ndarray, e_rate_wh: float,
                    demanded_w: np.ndarray | None = None) -> ShavingMetrics:
    """Peak-shaving metrics for one horizon.

    E_val / E_pek are the load energies below/above the depth-defined
    initial references; CR, RR, CUR follow their ratio definitions.
    Equivalent cycles use the total-throughput convention
    (E_chr + E_dis) / (2 * E_rate). Zero valley or peak energy yields NaN
    for the corresponding rate instead of an error.
    """
    executed_w = np.asarray(executed_w, dtype=float)
    step_wh = profile.dt_s / 3600.0
    e_chr = float(np.sum(executed_w[executed_w > 0]) * step_wh)
    e_dis = float(-np.sum(executed_w[executed_w < 0]) * step_wh)
    load, p_r = profile.values_w, plan.rated_power_w
    # the demand magnitudes at the initial references; abs rather than
    # negating the sum keeps a zero E_pek +0.0
    e_val = float(np.sum(_interval_demand(load, "charge", plan.p_chr_ref0_w,
                                          p_r)) * step_wh)
    e_pek = float(np.sum(np.abs(_interval_demand(
        load, "discharge", plan.p_dis_ref0_w, p_r))) * step_wh)
    cr = e_chr / e_val if e_val > 0 else math.nan
    rr = e_dis / e_pek if e_pek > 0 else math.nan
    cur = e_chr / e_rate_wh
    if demanded_w is None:
        util = 1.0
    else:
        demanded_w = np.asarray(demanded_w, dtype=float)
        active = demanded_w != 0
        util = (float(np.mean(np.abs(executed_w[active])
                              / np.abs(demanded_w[active])))
                if np.any(active) else math.nan)
    cycles = (e_chr + e_dis) / (2.0 * e_rate_wh)
    return ShavingMetrics(cr=cr, rr=rr, cur=cur, power_utilization=util,
                          equivalent_cycles=cycles, e_chr_wh=e_chr,
                          e_dis_wh=e_dis, e_val_wh=e_val, e_pek_wh=e_pek)
