"""Peak-shaving planning: cycle segmentation, the charge/discharge power
law, reference correction (per-cycle improved method and the day-level
symmetric baseline) and the peak-shaving performance metrics.

Planning works on the forecast load with perfect foresight (the forecast
equals the actual load). A horizon's days are its profile's own: its full
days, read as one (days, n) matrix, then a short last day as a second
(_parts). Each day is planned on its own, but plan_horizon segments and
corrects all days of a matrix at once, their bisections in lockstep, and
replay_horizon and horizon_metrics replay and score them at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import BessimError, DomainError, EmptyPlanError
from .plant import SOC_GATE_TOL, PlantConfig, steps_per_day

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

    Charging (positive): full p_r below the taper band, p_chr_ref - load
    inside it, zero above the reference. Discharging (negative): mirrored
    around p_dis_ref. Output always lies in [-p_r, +p_r]. The law is
    _interval_demand's, the one the plans and the run use, and it is zero
    where the run's SoC gate, Plant.blocked_mask, blocks its direction.
    """
    if not (load_w >= 0):
        raise DomainError("load_w must be non-negative")
    if load_w < p_chr_ref_w:
        kind, ref_w = "charge", p_chr_ref_w
        gated = soc >= soc_max - SOC_GATE_TOL
    elif load_w > p_dis_ref_w:
        kind, ref_w = "discharge", p_dis_ref_w
        gated = soc <= soc_min + SOC_GATE_TOL
    else:
        return 0.0
    if gated:
        return 0.0
    return float(_interval_demand(load_w, kind, ref_w, p_r_w))


def _interval_demand(load: np.ndarray, kind: str, ref_w, p_r_w,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Ungated demand (W, signed) of samples of one interval kind at the
    reference ref_w (both broadcast against load); out, when given, takes
    the result."""
    if kind == "charge":
        return np.clip(np.subtract(ref_w, load, out=out), 0.0, p_r_w, out=out)
    d = np.clip(np.subtract(load, ref_w, out=out), 0.0, p_r_w, out=out)
    return np.negative(d, out=out)


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
    def of(cls, load: np.ndarray, rows, ivs: list[Interval], p_r_w: float,
           dt_s: float) -> "_Lanes":
        """The intervals ivs, interval i on row rows[i] of the (days, n)
        matrix load."""
        charge = np.array([iv.kind == "charge" for iv in ivs])
        starts = np.array([iv.start for iv in ivs])
        lengths = np.array([iv.stop - iv.start for iv in ivs])
        rows = np.asarray(rows)
        key = 2 * lengths + ~charge
        order = np.argsort(key, kind="stable")
        key = key[order]
        bounds = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), key.size]
        groups = []
        for s, e in zip(bounds, bounds[1:]):
            idx = order[s:e]
            groups.append((
                "charge" if charge[idx[0]] else "discharge",
                load[rows[idx, None],
                     starts[idx, None] + np.arange(lengths[idx[0]])]))
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


def _bisect(lanes: _Lanes, ref: np.ndarray, e_ref: np.ndarray,
            end: np.ndarray, target_wh: np.ndarray, tol_wh: float
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisection of each lane's monotone interval energy (rising with the
    reference on a charge lane, falling on a discharge lane) between its
    reference ref, with the energy e_ref there, and end, on either side of
    ref, toward its target, every lane's steps in lockstep.

    Returns each lane's (reference, converged, energy at the reference).
    A target within tol of the most the lane can reach, or above it, takes
    that end, converged only if the end comes within tol; one within tol
    of the least takes the other end, converged. The rest bisect: each
    step takes the midpoint 0.5 * (a + b) of the bracket a < b, stops
    there if its energy is within tol of the target, and else keeps the
    half toward the target. After CORRECTION_MAX_ITERATIONS steps a lane
    takes the last bracket's midpoint, not converged.
    """
    e_end = lanes.energy_wh(end)
    rising = lanes.charge
    # whether the lane's energy is greater at end than at ref
    up = np.where(rising, end > ref, end < ref)
    up_ref, up_e = np.where(up, end, ref), np.where(up, e_end, e_ref)
    down_ref, down_e = np.where(up, ref, end), np.where(up, e_ref, e_end)
    top = target_wh >= up_e - tol_wh
    bottom = ~top & (target_wh <= down_e + tol_wh)
    keep = ~(top | bottom)
    run = np.flatnonzero(keep)
    lanes = lanes.take(keep)
    a, b = np.minimum(ref, end)[run], np.maximum(ref, end)[run]
    t, rising = target_wh[run], rising[run]
    ref = np.where(top, up_ref, down_ref)
    energy = np.where(top, up_e, down_e)
    ok = ~top | (up_e >= target_wh - tol_wh)
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


def _parts(profile: LoadProfile, plans: list[ShavingPlan] | None = None,
           *series: np.ndarray) -> list[tuple]:
    """The profile's days in at most two parts, its full days of
    samples_per_day samples, then a short last day if there is one: a
    (first day, (days, n) view of the load, and of each of series) per
    part. plans, when given, must be the plans of those days, one a day in
    order, each ending at its day's end; each of series must cover the
    profile."""
    load, per_day = profile.values_w, profile.samples_per_day()
    full, rest = divmod(load.size, per_day)
    if plans is not None and [plan.intervals[-1].stop for plan in plans
                              ] != [per_day] * full + [rest] * (rest > 0):
        raise DomainError("the plans' days must make up the profile")
    if any(x.shape != load.shape for x in series):
        raise DomainError("a power series must cover the profile")
    return [(a, *(x[a * per_day:][:c * n].reshape(c, n)
                  for x in (load, *series)))
            for a, c, n in [(0, full, per_day)] * (full > 0)
            + [(full, 1, rest)] * (rest > 0)]


def _segment_horizon(load: np.ndarray, p_chr_ref_w, p_dis_ref_w
                     ) -> tuple[list[list[Interval]], BessimError | None]:
    """The intervals of each day of load, a (days, n) matrix, at its
    references (sequences, one per day), all days at once: the day's
    maximal runs of charge-eligible (load below the charge reference) and
    discharge-eligible (above the discharge reference) samples, in order,
    each with its reference. Dead-band samples attach to the preceding
    interval, leading ones to the first interval found. Returns the
    intervals of each day up to the first day whose segmentation raises,
    and that day's error (None when none does).

    A sample is labelled charge (load below its day's charge reference) or
    discharge (above the discharge reference). The forward fill codes
    labelled sample i as the int32 2 i + (1 if charge) (a day holds fewer
    than 2**30 samples), every other sample -1, and
    seeds each day's first sample with its first labelled sample's code;
    a running maximum along the day then holds the code of the last
    labelled sample at or before each sample, whose low bit is its kind.
    """
    chr_ref = np.array(p_chr_ref_w, dtype=float)
    dis_ref = np.array(p_dis_ref_w, dtype=float)
    c, n = load.shape
    charge = load < chr_ref[:, None]
    labelled = load > dis_ref[:, None]
    labelled |= charge
    first = labelled.argmax(axis=1)
    bad = (chr_ref >= dis_ref) | ~labelled[np.arange(c), first]
    code = np.where(labelled, np.arange(0, 2 * n, 2, dtype=np.int32),
                    np.int32(-1))
    code += charge
    code[:, 0] = code[np.arange(c), first]
    np.maximum.accumulate(code, axis=1, out=code)
    kind = np.bitwise_and(code, 1, out=code)
    rows, cols = np.nonzero(kind[:, 1:] != kind[:, :-1])
    counts = np.bincount(rows, minlength=c).tolist()
    bounds = (cols + 1).tolist()
    days: list[list[Interval]] = []
    pos = 0
    for d, (k, is_charge, is_bad) in enumerate(zip(
            counts, kind[:, 0].tolist(), bad.tolist())):
        if is_bad:
            return days, (
                DomainError("p_chr_ref must be below p_dis_ref")
                if chr_ref[d] >= dis_ref[d] else
                EmptyPlanError("references produce no eligible interval"))
        cuts = [0, *bounds[pos:pos + k], n]
        pos += k
        intervals = []
        for start, stop in zip(cuts, cuts[1:]):
            intervals.append(
                Interval("charge", start, stop, p_chr_ref_w[d])
                if is_charge else
                Interval("discharge", start, stop, p_dis_ref_w[d]))
            is_charge = not is_charge
        days.append(intervals)
    return days, None


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


def plan_horizon(profile: LoadProfile, power_depth_w: float,
                 rated_energy_wh: float, method: str,
                 initial_energy_wh: float = 0.0) -> list[ShavingPlan]:
    """Independent day-ahead plan of each of the profile's days (_parts),
    in order, the days of each part planned at once and bit for bit as one
    day at a time. Each plan's rated power is power_depth_w, and its store
    of rated_energy_wh holds initial_energy_wh at the day's start.

    Each day starts from its depth references: its load minimum plus
    power_depth_w (charge) and its load maximum minus power_depth_w
    (discharge). method then corrects them: 'improved' per cycle, each
    interval's reference against the store and the next interval
    (_correct_improved), or 'original', the baseline of one symmetric
    reference pair a day (_correct_original). Each correction is a
    bisection, and a cycle whose correction fails is flagged infeasible,
    not raised. The corrections only correct; this function segments each
    day (_segment_horizon), at its depth references before 'improved' and
    at its corrected pair after 'original', and builds every plan.

    A day whose load range is at most twice power_depth_w cannot bracket
    its references and raises DomainError on power_depth_w naming the day,
    after the days before it are planned and their plans built, so that
    an error of theirs comes first; the same holds for the first day whose
    segmentation fails.
    """
    if method not in ("improved", "original"):
        raise DomainError(f"unknown scheduling method {method!r}")
    args = (power_depth_w, rated_energy_wh, profile.dt_s)
    plans: list[ShavingPlan] = []
    for _, load in _parts(profile):
        lo, hi = load.min(axis=1), load.max(axis=1)
        shallow = np.flatnonzero(hi - lo <= 2.0 * power_depth_w)
        n = int(shallow[0]) if shallow.size else len(load)
        load, lo, hi = load[:n], lo[:n], hi[:n]
        chr_ref = chr0 = (lo + power_depth_w).tolist()
        dis_ref = dis0 = (hi - power_depth_w).tolist()
        day_ivs, error = [], None
        if n and method == "original":
            chr_ref, dis_ref, ok = _correct_original(load, lo, hi, chr0,
                                                     dis0, *args)
            day_ivs, error = _segment_horizon(load, chr_ref, dis_ref)
            # one flag a day, the same for each of its intervals
            flags = [[k] * len(ivs) for k, ivs in zip(ok, day_ivs)]
        elif n:
            day_ivs, error = _segment_horizon(load, chr0, dis0)
            flags = _correct_improved(load, lo, hi, chr0, dis0, day_ivs,
                                      *args, initial_energy_wh
                                      ) if day_ivs else []
        for d, ivs in enumerate(day_ivs):
            cycles = _pair_cycles(ivs, chr_ref[d], dis_ref[d])
            for k, cyc in enumerate(cycles):
                cyc.feasible = all(flags[d][k:k + 2])
            plans.append(ShavingPlan(
                cycles=cycles, intervals=ivs,
                rated_power_w=power_depth_w, rated_energy_wh=rated_energy_wh,
                p_chr_ref0_w=chr0[d], p_dis_ref0_w=dis0[d],
                initial_energy_wh=initial_energy_wh))
        if error is None and shallow.size:
            error = DomainError(
                f"day {len(plans)}: daily load range must exceed twice the "
                "power depth for the references to bracket the load",
                field="power_depth_w")
        if error is not None:
            raise error
    return plans


def _correct_improved(load: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      chr0, dis0, day_ivs: list[list[Interval]], p_r_w: float,
                      e_r_wh: float, dt: float,
                      initial_energy_wh: float) -> list[list[bool]]:
    """Per-cycle reference correction of the first days of load, a (days,
    n) matrix with each day's load minimum lo and maximum hi, one for each
    day's intervals in day_ivs, segmented at their initial references chr0
    and dis0. Corrects each interval's ref_w in place and returns each
    day's flags, one an interval, False where its cycle is infeasible.

    Each day's intervals are walked in order, tracking the planned stored
    energy E in [0, e_r]. Each interval's reference is corrected against
    the next interval of its cycle: overcharge lowers the charge
    reference, undercharge (room left and the paired discharge wants more)
    raises it; over-discharge raises the discharge reference,
    under-discharge (the paired charge would overflow) lowers it. Each
    correction is a bisection capped at CORRECTION_MAX_ITERATIONS; an
    interval whose cycle cannot be brought inside [0, e_r] within
    tolerance is flagged False, not raised.

    Interval position j is walked over all days together. Every interval's
    energy at its initial reference is taken once, in one pass: it is
    E_now at j and E_next at j - 1. The bisections of j run in lockstep
    from the interval's reference toward an end, and an interval's energy
    at its final reference is the bisection's, or E_now when it kept its
    reference."""
    tol = CORRECTION_TOLERANCE_FRAC * e_r_wh
    flat = [iv for ivs in day_ivs for iv in ivs]
    first = np.cumsum([0, *map(len, day_ivs)]).tolist()
    e_init = _Lanes.of(
        load, np.repeat(np.arange(len(day_ivs)), list(map(len, day_ivs))),
        flat, p_r_w, dt,
    ).energy_wh(np.array([iv.ref_w for iv in flat])).tolist()
    lo_bound, hi_bound = lo.tolist(), hi.tolist()
    energy = [float(initial_energy_wh)] * len(day_ivs)
    flags: list[list[bool]] = [[] for _ in day_ivs]

    for j in range(max(map(len, day_ivs))):
        # (day, interval, energy at iv.ref_w, end, target, room) of each
        #  bisection: room says whether the store leaves room for the
        #  cycle, None where the bisection's convergence does not count
        #  toward feasibility
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
                    wait.append((d, iv, e_now, lo_bound[d], e_r_wh - e,
                                 e_r_wh - e > tol))
                    continue
                if e + e_now < e_next and e + e_now < e_r_wh - tol:
                    # undercharge: raise the charge reference toward the
                    # next interval's demand, bounded by capacity and the
                    # discharge ref
                    top = (nxt.ref_w if nxt is not None
                           else dis0[d]) - gap
                    if top > iv.ref_w:
                        wait.append((d, iv, e_now, top,
                                     min(e_next, e_r_wh) - e, None))
                        continue
                energy[d] = min(e + e_now, e_r_wh)
            else:
                if e_now > e + tol:
                    # over-discharge: raise the discharge reference; an
                    # empty store means the cycle cannot be honored
                    wait.append((d, iv, e_now, hi_bound[d], e, e > tol))
                    continue
                if e - e_now + e_next > e_r_wh + tol and e - e_now > tol:
                    # under-discharge: lower the discharge reference so the
                    # next charge interval does not overflow capacity
                    bottom = (nxt.ref_w if nxt is not None
                              else chr0[d]) + gap
                    if bottom < iv.ref_w:
                        wait.append((d, iv, e_now, bottom,
                                     e + e_next - e_r_wh, None))
                        continue
                energy[d] = max(e - e_now, 0.0)
            flags[d].append(True)
        if not wait:
            continue
        ds, w_ivs, known, ends, targets, room = zip(*wait)
        lanes = _Lanes.of(load, ds, w_ivs, p_r_w, dt)
        ref, ok, e_ref = (x.tolist() for x in _bisect(
            lanes, np.array([iv.ref_w for iv in w_ivs]), np.array(known),
            np.array(ends), np.array(targets), tol))
        for d, iv, r, k, e_iv, fits in zip(ds, w_ivs, ref, ok, e_ref, room):
            iv.ref_w = r
            flags[d].append(True if fits is None else k and fits)
            energy[d] = (min(energy[d] + e_iv, e_r_wh) if iv.kind == "charge"
                         else max(energy[d] - e_iv, 0.0))
    return flags


def _correct_original(load: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      chr0, dis0, p_r_w: float, e_r_wh: float, dt: float
                      ) -> tuple[list[float], list[float], list[bool]]:
    """Day-granularity baseline for each day of load, a (days, n) matrix
    with each day's load minimum lo and maximum hi, from its initial
    references chr0 and dis0: one symmetric reference pair per day.

    The references are corrected so daily charge energy equals daily
    discharge energy at the largest symmetric target the day allows:
    min(maximum capturable valley energy, maximum releasable peak energy,
    e_r), with each reference allowed to advance into the load up to the
    daily mid-level. Over-adjustment relative to the depth-defined
    references is characteristic of this baseline.

    Every day's charge and discharge reference is one lane of one lockstep
    bisection (a charge lane i and a discharge lane n + i per day i), from
    its inner end (up to the mid-level) toward its outer end (the day's
    load minimum or maximum). Returns each day's corrected charge and
    discharge references, and whether both converged."""
    n = len(load)
    tol = CORRECTION_TOLERANCE_FRAC * e_r_wh
    mid = 0.5 * (lo + hi)
    gap = 0.005 * (hi - lo)
    inner = np.concatenate([np.maximum(mid - gap, chr0),
                            np.minimum(mid + gap, dis0)])
    # the lanes are the rows of load: every day's charge lane, then every
    # day's discharge lane, already in lane order
    lanes = _Lanes(np.arange(2 * n) < n, np.arange(2 * n),
                   [("charge", load), ("discharge", load)], p_r_w, dt)
    e_inner = lanes.energy_wh(inner)
    target = np.minimum(np.minimum(e_inner[:n], e_inner[n:]), e_r_wh)
    ref, ok, _ = _bisect(lanes, inner, e_inner, np.concatenate([lo, hi]),
                         np.tile(target, 2), tol)
    return ref[:n].tolist(), ref[n:].tolist(), (ok[:n] & ok[n:]).tolist()


def replay_horizon(plans: list[ShavingPlan], profile: LoadProfile,
                   gated: bool = True) -> dict:
    """Execute every plan on its day of profile against the load with an
    ideal plant, all days at once and bit for bit as one day at a time.

    Returns the demand series (W, signed) over the profile as demand_w,
    and the planned stored-energy trace of each day, n + 1 entries for a
    day of n samples, end to end, as energy_wh. With gated=True each day's
    store e stays inside [0, e_r], e_r = rated_energy_wh, mirroring the
    SoC gate of the power law at plan level: of the sample energies
    d = demand * step_h, a charging one (d > 0) with e + d > e_r takes
    d = e_r - e and leaves e = e_r, any other with e + d < 0 takes d = -e
    and leaves e = 0.0, and the rest add d. Each demand comes back as
    d / step_h, and the unclamped demand (demand_w of gated=False) as
    demanded_w. The plans must be those of the profile's days (_parts),
    and each part's series are made on its (days, n) matrix and joined
    only when there are two.

    The demand is _interval_demand of each sample's interval kind at its
    reference. Each day's trace is one np.add.accumulate of
    [e0, d...] along its row of a (days, n + 1) matrix, which adds in the
    sample loop's order. The gate then works in rounds over the days whose
    trace passes a bound: all samples of an interval push the store one
    way, so the first passing sample of a day lies in the first interval
    whose bound binds, and the bound it passes (above e_r, below 0) tells
    the interval's kind. That sample takes the clamp, the rest of its
    interval keeps only the samples that cannot move the store past the
    bound, the store is pinned to the bound through the interval's end,
    and the day is accumulated again from there.
    """
    step_wh = profile.dt_s / 3600.0
    out = []
    for a, load in _parts(profile, plans):
        day_plans = plans[a:a + len(load)]
        intervals = [iv for plan in day_plans for iv in plan.intervals]
        iv_lengths = np.array([iv.stop - iv.start for iv in intervals])
        # each sample's ungated demand at its interval's reference: the
        # discharge law, and the charge law where the interval charges
        ref = np.repeat(np.array([iv.ref_w for iv in intervals]),
                        iv_lengths).reshape(load.shape)
        p_r = np.array([plan.rated_power_w for plan in day_plans])[:, None]
        demand = _interval_demand(load, "discharge", ref, p_r,
                                  out=np.empty(load.shape))
        _interval_demand(load, "charge", ref, p_r, out=ref)
        np.copyto(demand, ref, where=np.repeat(
            np.array([iv.kind == "charge" for iv in intervals]),
            iv_lengths).reshape(load.shape))
        del ref
        e0 = np.array([plan.initial_energy_wh for plan in day_plans])[:, None]
        energy = np.empty((len(load), load.shape[1] + 1))
        if not gated:
            np.cumsum(demand, axis=1, out=energy[:, 1:])
            energy[:, 1:] *= step_wh
            energy[:, 1:] += e0
            energy[:, :1] = e0
            out.append({"demand_w": demand, "energy_wh": energy})
            continue
        d_wh = demand * step_wh
        energy[:, :1] = e0
        energy[:, 1:] = d_wh
        np.add.accumulate(energy, axis=1, out=energy)
        _gate(d_wh, energy, np.array([plan.rated_energy_wh for plan in day_plans]),
              np.cumsum(iv_lengths))
        out.append({"demand_w": np.divide(d_wh, step_wh, out=d_wh),
                    "energy_wh": energy, "demanded_w": demand})
    if len(out) == 1:
        return {key: x.ravel() for key, x in out[0].items()}
    return {key: np.concatenate([part[key].ravel() for part in out])
            for key in out[0]}


def _gate(d: np.ndarray, e: np.ndarray, e_r: np.ndarray,
          stops: np.ndarray) -> None:
    """The clamp rounds of replay_horizon on one part, in place: d (days,
    n) the sample energies, e (days, n + 1) their accumulated traces, e_r
    (days,) each day's store size, stops the part's interval ends, its
    samples counted row after row."""
    cols = np.arange(e.shape[1])    # trace positions: sample i ends at i + 1
    rows = np.arange(len(e))
    trace = e                       # the trace searched for each of rows
    while True:
        er = e_r[rows, None]
        passed = trace > er
        passed |= trace < 0.0
        j = passed.argmax(axis=1)   # the position after the passing sample
        at = np.arange(rows.size)
        hit = passed[at, j]
        if not hit.any():
            return
        store = trace[at, j - 1][hit]
        charge = (trace[at, j] > er[:, 0])[hit]
        rows, k, er, at = rows[hit], j[hit] - 1, er[hit], at[:hit.sum()]
        # the end of the interval of sample k, in the day; first is each
        # row's first sample in the part
        first = rows * d.shape[1]
        end = stops[np.searchsorted(stops, first + k, side="right")] - first
        bound = np.where(charge, er[:, 0], 0.0)[:, None]
        dr = d[rows]
        dr[at, k] = np.where(charge, er[:, 0] - store, -store)
        k, end, charge = k[:, None], end[:, None], charge[:, None]
        # the rest of the interval keeps a charge too small to move the
        # full store and no discharge
        again = np.empty((rows.size, e.shape[1]))
        drop = np.add(dr, er, out=again[:, 1:]) > er
        drop &= charge
        drop |= (dr < 0.0) & ~charge
        drop &= (cols[:-1] > k) & (cols[:-1] < end)
        np.copyto(dr, np.where(charge, 0.0, -0.0), where=drop)
        d[rows] = dr
        # the store pinned to the bound through the interval's end, and
        # accumulated again from there
        again[:, 1:] = dr
        np.copyto(again, 0.0, where=cols < end)
        again[at, end[:, 0]] = bound[:, 0]
        np.add.accumulate(again, axis=1, out=again)
        np.copyto(again, bound, where=(cols > k) & (cols < end))
        trace = e[rows]
        np.copyto(trace, again, where=cols > k)
        e[rows] = trace
        trace = again


def horizon_metrics(profile: LoadProfile, plans: list[ShavingPlan],
                    executed_w: np.ndarray, e_rate_wh: float,
                    demanded_w: np.ndarray | None = None
                    ) -> list[ShavingMetrics]:
    """Peak-shaving metrics of every plan's day of profile, with executed_w
    and demanded_w over the whole profile, all days at once and bit for bit
    as one day at a time. The plans must be those of the profile's days
    (_parts).

    E_val / E_pek are the load energies below/above the depth-defined
    initial references; CR, RR, CUR follow their ratio definitions.
    Equivalent cycles use the total-throughput convention
    (E_chr + E_dis) / (2 * E_rate). Zero valley or peak energy yields NaN
    for the corresponding rate instead of an error.

    E_val and E_pek are row sums of a part's (days, n) matrix, which numpy
    sums by each row's own pairwise tree. E_chr, E_dis and the power
    utilization compress a part's matrix once (x[x > 0], ...); each day's
    contiguous slice of that is exactly the day's own compressed array,
    and is summed alone.
    """
    series = [np.asarray(executed_w, dtype=float)]
    if demanded_w is not None:
        series.append(np.asarray(demanded_w, dtype=float))
    step_wh = profile.dt_s / 3600.0

    def by_day(x, mask):
        """x where mask holds, compressed once and cut into days."""
        kept = x[mask]
        at = [0, *np.cumsum(np.count_nonzero(mask, axis=1)).tolist()]
        return [kept[i:j] for i, j in zip(at, at[1:])]

    metrics = []
    for a, load, executed, *demanded in _parts(profile, plans, *series):
        day_plans = plans[a:a + len(load)]
        p_r = np.array([plan.rated_power_w for plan in day_plans])[:, None]
        # the demand magnitudes at the initial references; abs rather than
        # negating the sum keeps a zero E_pek +0.0
        v = _interval_demand(load, "charge", np.array(
            [plan.p_chr_ref0_w for plan in day_plans])[:, None], p_r)
        e_val = (v.sum(axis=1) * step_wh).tolist()
        _interval_demand(load, "discharge", np.array(
            [plan.p_dis_ref0_w for plan in day_plans])[:, None], p_r, out=v)
        e_pek = (np.abs(v, out=v).sum(axis=1) * step_wh).tolist()

        charged = by_day(executed, executed > 0)
        discharged = by_day(executed, executed < 0)
        if not demanded:
            utils = [1.0] * len(day_plans)
        else:
            active = demanded[0] != 0
            ratio = np.abs(executed)
            np.divide(ratio, np.abs(demanded[0]), out=ratio, where=active)
            utils = [float(r.sum() / r.size) if r.size else math.nan
                     for r in by_day(ratio, active)]

        for val, pek, chg, dis, util in zip(e_val, e_pek, charged,
                                            discharged, utils):
            e_chr = float(chg.sum() * step_wh)
            e_dis = float(-dis.sum() * step_wh)
            metrics.append(ShavingMetrics(
                cr=e_chr / val if val > 0 else math.nan,
                rr=e_dis / pek if pek > 0 else math.nan,
                cur=e_chr / e_rate_wh, power_utilization=util,
                equivalent_cycles=(e_chr + e_dis) / (2.0 * e_rate_wh),
                e_chr_wh=e_chr, e_dis_wh=e_dis, e_val_wh=val, e_pek_wh=pek))
    return metrics
