"""Peak-shaving planning: cycle segmentation, the charge/discharge power
law, reference correction (per-cycle improved method and the day-level
symmetric baseline) and the peak-shaving performance metrics.

Planning works on the forecast load with perfect foresight (the forecast
equals the actual load). Each day is corrected on its own, but plan_days
corrects all of a horizon's days at once, their bisections in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import BessimError, DomainError, EmptyPlanError
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


def _interval_energy_wh(load: np.ndarray, kind: str, ref_w: np.ndarray,
                        p_r_w: float, dt_s: float) -> np.ndarray:
    """Magnitude of the demand energy (Wh) of each row of load, a
    C-contiguous (lanes, n) matrix of one interval kind, at its reference
    (ref_w, (lanes, 1)): |_interval_demand| summed along the row. numpy
    sums each row of such a matrix by the pairwise tree of a 1-D sum, so a
    row's energy is bit for bit its own 1-D sum's."""
    d = _interval_demand(load, kind, ref_w, p_r_w)
    return np.abs(d, out=d).sum(axis=-1) * dt_s / 3600.0


class _Lanes:
    """Load segments of one sampling step, each a lane of the correction.
    Every array given or returned is per segment, in the segments' order.
    Inside, the segments stand grouped by (kind, length), stably, one
    (kind, (lanes, n) matrix) per group, each group evaluated in one pass;
    segment _order[i] is lane i of the groups taken in turn."""

    def __init__(self, charge: np.ndarray, order: np.ndarray,
                 groups: list[tuple[str, np.ndarray]], p_r_w: float,
                 dt_s: float):
        self.charge = charge
        self._order = order
        self._groups = groups
        self._p_r_w = p_r_w
        self._dt_s = dt_s

    @classmethod
    def of(cls, load: np.ndarray, charge: np.ndarray, starts: np.ndarray,
           lengths: np.ndarray, p_r_w: float, dt_s: float) -> "_Lanes":
        """The segments load[starts[i]:starts[i] + lengths[i]], a charge
        interval's where charge[i] and else a discharge interval's."""
        key = 2 * lengths + ~charge
        order = np.argsort(key, kind="stable")
        key = key[order]
        bounds = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), key.size]
        groups = []
        for s, e in zip(bounds, bounds[1:]):
            idx = order[s:e]
            groups.append((
                "charge" if charge[idx[0]] else "discharge",
                load[starts[idx, None] + np.arange(lengths[idx[0]])]))
        return cls(charge, order, groups, p_r_w, dt_s)

    def take(self, keep: np.ndarray) -> "_Lanes":
        """The segments where keep is True, in their order."""
        if keep.all():
            return self
        kept = keep[self._order]
        groups = []
        s = 0
        for kind, mat in self._groups:
            e = s + len(mat)
            k = kept[s:e]
            if k.all():
                groups.append((kind, mat))
            elif k.any():
                groups.append((kind, mat[k]))
            s = e
        rank = np.cumsum(keep) - 1
        return _Lanes(self.charge[keep], rank[self._order[kept]], groups,
                      self._p_r_w, self._dt_s)

    def energy_wh(self, ref_w: np.ndarray) -> np.ndarray:
        """Each segment's demand energy magnitude (Wh) at its reference."""
        ref_w = ref_w[self._order]
        out = np.empty(ref_w.size)
        s = 0
        for kind, mat in self._groups:
            e = s + len(mat)
            out[s:e] = _interval_energy_wh(mat, kind, ref_w[s:e, None],
                                           self._p_r_w, self._dt_s)
            s = e
        energy = np.empty_like(out)
        energy[self._order] = out
        return energy


def _bisect(lanes: _Lanes, lo: np.ndarray, hi: np.ndarray,
            e_lo: np.ndarray, e_hi: np.ndarray, target_wh: np.ndarray,
            tol_wh: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisection of each lane's monotone interval energy (rising with the
    reference on a charge lane, falling on a discharge lane) between its
    references lo and hi, with the energies e_lo and e_hi there, toward
    its target, every lane's steps in lockstep.

    Returns each lane's (reference, converged, energy at the reference).
    A target within tol of the most the lane can reach, or above it, takes
    that end, converged only if the end comes within tol; one within tol
    of the least takes the other end, converged. The rest bisect: each
    step takes the midpoint 0.5 * (a + b), stops there if its energy is
    within tol of the target, and else keeps the half toward the target.
    After CORRECTION_MAX_ITERATIONS steps a lane takes the last interval's
    midpoint, not converged.
    """
    rising = lanes.charge
    up_ref, up_e = np.where(rising, hi, lo), np.where(rising, e_hi, e_lo)
    down_ref, down_e = np.where(rising, lo, hi), np.where(rising, e_lo, e_hi)
    top = target_wh >= up_e - tol_wh
    bottom = ~top & (target_wh <= down_e + tol_wh)
    ref = np.where(top, up_ref, down_ref)
    energy = np.where(top, up_e, down_e)
    ok = ~top | (up_e >= target_wh - tol_wh)
    keep = ~(top | bottom)
    run = np.flatnonzero(keep)
    lanes = lanes.take(keep)
    a, b, t, rising = lo[run], hi[run], target_wh[run], rising[run]
    for _ in range(CORRECTION_MAX_ITERATIONS):
        if not run.size:
            break
        mid = 0.5 * (a + b)
        e = lanes.energy_wh(mid)
        hit = np.abs(e - t) <= tol_wh
        if hit.any():
            done = run[hit]
            ref[done], energy[done] = mid[hit], e[hit]
            keep = ~hit
            lanes = lanes.take(keep)
            run, a, b, t, rising, mid, e = (
                x[keep] for x in (run, a, b, t, rising, mid, e))
        low = (e < t) == rising
        a = np.where(low, mid, a)
        b = np.where(low, b, mid)
    if run.size:
        mid = 0.5 * (a + b)
        ref[run], ok[run], energy[run] = mid, False, lanes.energy_wh(mid)
    return ref, ok, energy


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


def _horizon(days: list[LoadProfile]):
    """The days' load end to end, and each day's first sample in it,
    sample count, load minimum and load maximum (arrays)."""
    load = (np.concatenate([day.values_w for day in days]) if len(days) > 1
            else days[0].values_w)
    lengths = np.array([day.n_samples for day in days])
    starts = np.concatenate([[0], np.cumsum(lengths[:-1])])
    return (load, starts, lengths, np.minimum.reduceat(load, starts),
            np.maximum.reduceat(load, starts))


def plan_days(days: list[LoadProfile], p_r_w: float, e_r_wh: float, refs0,
              method: str,
              initial_energy_wh: float = 0.0) -> list[ShavingPlan]:
    """The corrected plan of each of days, days of one sampling step, all
    planned at once by method: 'improved' (correct_references_improved)
    or 'original' (correct_references_original), bit for bit as one day at
    a time.

    refs0, an iterable of (charge, discharge) pairs, gives each day's
    initial references in day order and is read one day at a time. The
    first day for which it, or the segmentation at those references,
    raises ends the horizon there: the days before it are planned and
    their plans built in order, so that an error of theirs comes first,
    and then that day's error is raised.
    """
    if method not in ("improved", "original"):
        raise DomainError(f"unknown scheduling method {method!r}")
    prepared: list[tuple[LoadProfile, float, float, list[Interval]]] = []
    error = None
    try:
        for day, (chr0, dis0) in zip(days, refs0):
            if day.dt_s != days[0].dt_s:
                raise DomainError("days must share one sampling step")
            prepared.append((day, chr0, dis0,
                             segment_intervals(day, chr0, dis0)
                             if method == "improved" else []))
    except BessimError as exc:
        error = exc
    correct = _correct_improved if method == "improved" else _correct_original
    plans = (correct(prepared, p_r_w, e_r_wh, initial_energy_wh)
             if prepared else [])
    if error is not None:
        raise error
    return plans


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
    The one-day case of plan_days, which walks every day's intervals at
    once by these rules.
    """
    return plan_days([profile], p_r_w, e_r_wh, [(p_chr_ref0_w, p_dis_ref0_w)],
                     "improved", initial_energy_wh)[0]


def _correct_improved(prepared, p_r_w: float, e_r_wh: float,
                      initial_energy_wh: float) -> list[ShavingPlan]:
    """correct_references_improved for each prepared day, walking interval
    position j over all days together. Every interval's energy at its
    initial reference is taken once, in one pass: it is E_now at j and
    E_next at j - 1. The bisections of j run in lockstep, and an
    interval's energy at its final reference is the bisection's, or E_now
    when it kept its reference."""
    days = [p[0] for p in prepared]
    day_ivs = [p[3] for p in prepared]
    load, starts, _, lo, hi = _horizon(days)
    dt = days[0].dt_s
    tol = CORRECTION_TOLERANCE_FRAC * e_r_wh
    flat = [iv for ivs in day_ivs for iv in ivs]
    first = np.cumsum([0, *map(len, day_ivs)]).tolist()
    e_init = _Lanes.of(
        load, np.array([iv.kind == "charge" for iv in flat]),
        np.array([int(s) + iv.start for s, ivs in zip(starts, day_ivs)
                  for iv in ivs]),
        np.array([iv.stop - iv.start for iv in flat]), p_r_w, dt,
    ).energy_wh(np.array([iv.ref_w for iv in flat])).tolist()
    lo_bound, hi_bound = lo.tolist(), hi.tolist()
    energy = [float(initial_energy_wh)] * len(days)
    flags: list[list[bool]] = [[] for _ in days]

    for j in range(max(map(len, day_ivs))):
        # (day, interval, lo, hi, energy at iv.ref_w, whether that is lo,
        #  target, room) of each bisection: room says whether the store
        #  leaves room for the cycle, None where the bisection's
        #  convergence does not count toward feasibility
        wait = []
        for d, ivs in enumerate(day_ivs):
            if j >= len(ivs):
                continue
            iv = ivs[j]
            nxt = ivs[j + 1] if j + 1 < len(ivs) else None
            e_now = e_init[first[d] + j]
            e_next = e_init[first[d] + j + 1] if nxt is not None else 0.0
            e = energy[d]
            gap = max(1e-6 * (hi_bound[d] - lo_bound[d]), 1e-6)
            if iv.kind == "charge":
                if e + e_now > e_r_wh + tol:
                    # overcharge: reduce the charge reference; no room at
                    # all means the cycle cannot be honored
                    wait.append((d, iv, lo_bound[d], iv.ref_w, e_now, False,
                                 e_r_wh - e, e_r_wh - e > tol))
                    continue
                if e + e_now < e_next and e + e_now < e_r_wh - tol:
                    # undercharge: raise the charge reference toward the
                    # next interval's demand, bounded by capacity and the
                    # discharge ref
                    top = (nxt.ref_w if nxt is not None
                           else prepared[d][2]) - gap
                    if top > iv.ref_w:
                        wait.append((d, iv, iv.ref_w, top, e_now, True,
                                     min(e_next, e_r_wh) - e, None))
                        continue
                energy[d] = min(e + e_now, e_r_wh)
            else:
                if e_now > e + tol:
                    # over-discharge: raise the discharge reference; an
                    # empty store means the cycle cannot be honored
                    wait.append((d, iv, iv.ref_w, hi_bound[d], e_now, True,
                                 e, e > tol))
                    continue
                if e - e_now + e_next > e_r_wh + tol and e - e_now > tol:
                    # under-discharge: lower the discharge reference so the
                    # next charge interval does not overflow capacity
                    bottom = (nxt.ref_w if nxt is not None
                              else prepared[d][1]) + gap
                    if bottom < iv.ref_w:
                        wait.append((d, iv, bottom, iv.ref_w, e_now, False,
                                     e + e_next - e_r_wh, None))
                        continue
                energy[d] = max(e - e_now, 0.0)
            flags[d].append(True)
        if not wait:
            continue
        ds, w_ivs, *columns, room = zip(*wait)
        lo_j, hi_j, known, at_lo, targets = map(np.array, columns)
        lanes = _Lanes.of(
            load, np.array([iv.kind == "charge" for iv in w_ivs]),
            np.array([int(starts[d]) + iv.start for d, iv in zip(ds, w_ivs)]),
            np.array([iv.stop - iv.start for iv in w_ivs]), p_r_w, dt)
        e_other = lanes.energy_wh(np.where(at_lo, hi_j, lo_j))
        ref, ok, e_ref = (x.tolist() for x in _bisect(
            lanes, lo_j, hi_j, np.where(at_lo, known, e_other),
            np.where(at_lo, e_other, known), targets, tol))
        for d, iv, r, k, e_iv, fits in zip(ds, w_ivs, ref, ok, e_ref, room):
            iv.ref_w = r
            flags[d].append(True if fits is None else k and fits)
            energy[d] = (min(energy[d] + e_iv, e_r_wh) if iv.kind == "charge"
                         else max(energy[d] - e_iv, 0.0))

    plans = []
    for (day, chr0, dis0, intervals), day_flags in zip(prepared, flags):
        cycles = _pair_cycles(intervals, chr0, dis0)
        for n, cyc in enumerate(cycles):
            cyc.feasible = all(day_flags[n:n + 2] if len(intervals) > 1
                               else day_flags)
        plans.append(ShavingPlan(
            cycles=cycles, intervals=intervals,
            rated_power_w=p_r_w, rated_energy_wh=e_r_wh,
            p_chr_ref0_w=chr0, p_dis_ref0_w=dis0,
            initial_energy_wh=initial_energy_wh))
    return plans


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
    references is characteristic of this baseline. The one-day case of
    plan_days, which bisects every day's two references at once.
    """
    return plan_days([profile], p_r_w, e_r_wh, [(p_chr_ref0_w, p_dis_ref0_w)],
                     "original", initial_energy_wh)[0]


def _correct_original(prepared, p_r_w: float, e_r_wh: float,
                      initial_energy_wh: float) -> list[ShavingPlan]:
    """correct_references_original for each prepared day: every day's
    charge and discharge reference is one lane of one lockstep bisection
    (a charge lane i and a discharge lane n + i per day i)."""
    days = [p[0] for p in prepared]
    n = len(days)
    load, starts, lengths, lo, hi = _horizon(days)
    tol = CORRECTION_TOLERANCE_FRAC * e_r_wh
    mid = 0.5 * (lo + hi)
    gap = 0.005 * (hi - lo)
    # each lane's bisection runs from its outer end (the day's load minimum
    # or maximum) to its inner end (up to the mid-level)
    inner = np.concatenate([
        np.maximum(mid - gap, np.array([p[1] for p in prepared])),
        np.minimum(mid + gap, np.array([p[2] for p in prepared]))])
    outer = np.concatenate([lo, hi])
    charge = np.arange(2 * n) < n
    lanes = _Lanes.of(load, charge, np.tile(starts, 2), np.tile(lengths, 2),
                   p_r_w, days[0].dt_s)
    e_inner = lanes.energy_wh(inner)
    e_outer = lanes.energy_wh(outer)
    target = np.minimum(np.minimum(e_inner[:n], e_inner[n:]), e_r_wh)
    ref, ok, _ = (x.tolist() for x in _bisect(
        lanes, np.where(charge, outer, inner), np.where(charge, inner, outer),
        np.where(charge, e_outer, e_inner), np.where(charge, e_inner, e_outer),
        np.tile(target, 2), tol))

    plans = []
    for i, (day, chr0, dis0, _) in enumerate(prepared):
        r_chr, r_dis = ref[i], ref[n + i]
        intervals = segment_intervals(day, r_chr, r_dis)
        cycles = _pair_cycles(intervals, r_chr, r_dis)
        for cyc in cycles:
            cyc.feasible = ok[i] and ok[n + i]
        plans.append(ShavingPlan(
            cycles=cycles, intervals=intervals,
            rated_power_w=p_r_w, rated_energy_wh=e_r_wh,
            p_chr_ref0_w=chr0, p_dis_ref0_w=dis0,
            initial_energy_wh=initial_energy_wh))
    return plans


def depth_references(profile: LoadProfile, power_depth_w: float) -> tuple[float, float]:
    """Depth-defined initial references: min + depth and max - depth."""
    lo, hi = float(profile.values_w.min()), float(profile.values_w.max())
    if hi - lo <= 2.0 * power_depth_w:
        raise DomainError(
            "daily load range must exceed twice the power depth for the "
            "references to bracket the load", field="power_depth_w")
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
