import math
from dataclasses import fields, replace
from datetime import datetime

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bessim import scheduler
from bessim.errors import BessimError, DomainError, EmptyPlanError
from bessim.plant import SOC_GATE_TOL, Plant, uniform_plant_config
from bessim.profiles import SynthLoadSpec, synth_load
from bessim.scheduler import (
    Interval,
    LoadProfile,
    ShavingMetrics,
    ShavingPlan,
    demand_power,
    horizon_metrics,
    replay_horizon,
)
from bessim.simulate import plan_horizon

START = datetime(2024, 1, 1)


def profile_from_hours(values_mw, dt_s=3600.0):
    return LoadProfile(START, dt_s, np.asarray(values_mw, dtype=float) * 1e6)


def double_bump_day(dt_s=60.0):
    """One day: deep night valley, shallow evening peak (asymmetric)."""
    t = np.arange(int(86400 / dt_s)) * dt_s / 3600.0
    load = (30.0
            - 6.0 * np.exp(-0.5 * ((t - 3.5) / 1.5) ** 2)
            + 7.0 * np.exp(-0.5 * ((t - 19.5) / 0.66) ** 2))
    return LoadProfile(START, dt_s, load * 1e6)


class TestLoadProfile:
    def test_negative_load_rejected(self):
        with pytest.raises(DomainError):
            profile_from_hours([1.0, -1.0])

    def test_uneven_day_rejected(self):
        with pytest.raises(DomainError):
            profile_from_hours([1, 2, 3], dt_s=7000.0).samples_per_day()


class TestDemandPower:
    P_R = 5e6

    def test_full_power_branch(self):
        assert demand_power(14e6, 20e6, 30e6, 0.5, self.P_R) == pytest.approx(5e6)

    def test_taper_branch(self):
        assert demand_power(17e6, 20e6, 30e6, 0.5, self.P_R) == pytest.approx(3e6)

    def test_discharge_full_power_branch(self):
        assert demand_power(36e6, 20e6, 30e6, 0.5, self.P_R) == pytest.approx(-5e6)

    def test_dead_band(self):
        assert demand_power(25e6, 20e6, 30e6, 0.5, self.P_R) == 0.0

    def test_soc_gates(self):
        assert demand_power(10e6, 20e6, 30e6, 0.97, self.P_R) == 0.0
        assert demand_power(40e6, 20e6, 30e6, 0.03, self.P_R) == 0.0

    def test_gates_where_the_plant_blocks(self):
        # SoCs on both sides of each bound, and of SOC_GATE_TOL inside it,
        # down to the neighbouring floats
        plant = Plant(uniform_plant_config(1))
        soc = []
        for bound in (plant.cfg.soc_min, plant.cfg.soc_max):
            for edge in (bound - SOC_GATE_TOL, bound, bound + SOC_GATE_TOL):
                soc += [edge + k * 1e-13 for k in range(-3, 4)]
                soc += [np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]
        plant.soc = np.array(soc)
        for load, p_sys in ((10e6, 1.0), (40e6, -1.0)):
            gated = [demand_power(load, 20e6, 30e6, x, self.P_R) == 0.0
                     for x in soc]
            blocked = plant.blocked_mask(p_sys).tolist()
            assert gated == blocked
            assert any(blocked) and not all(blocked)

    def test_never_exceeds_rated_power(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            load = float(rng.uniform(0, 60e6))
            d = demand_power(load, 20e6, 30e6, 0.5, self.P_R)
            assert abs(d) <= self.P_R + 1e-9

    def test_negative_load_rejected(self):
        with pytest.raises(DomainError):
            demand_power(-1.0, 20e6, 30e6, 0.5, self.P_R)

    def test_nan_load_rejected(self):
        with pytest.raises(DomainError):
            demand_power(math.nan, 20e6, 30e6, 0.5, self.P_R)

    @pytest.mark.parametrize("method", ["improved", "original"])
    def test_plan_demand_is_the_power_law(self, method):
        # run_simulation executes the plan's ungated demand; sample by sample
        # it is demand_power at mid SoC with the interval's reference
        day = double_bump_day()
        plan, = plan_horizon(day, 5e6, 10e6, method)
        planned = replay_horizon([plan], day, gated=False)["demand_w"]
        law = np.full(day.n_samples, np.nan)
        for iv in plan.intervals:
            refs = ((iv.ref_w, math.inf) if iv.kind == "charge"
                    else (-math.inf, iv.ref_w))
            for i in range(iv.start, iv.stop):
                law[i] = demand_power(day.values_w[i], *refs, 0.5,
                                      plan.rated_power_w)
        assert np.array_equal(planned, law)
        assert np.any(planned > 0) and np.any(planned < 0)


class TestSegmentation:
    """_segment_horizon of one hourly day (or less), a matrix of one row,
    at chosen references."""

    def test_two_valley_two_peak_day_pairs_three_cycles(self):
        # charge, discharge, charge, discharge -> overlapping pairs
        load = np.array([10, 10, 25, 40, 40, 25, 10, 10, 25, 40, 40, 25]) * 1e6
        (intervals,), _ = scheduler._segment_horizon(load[None], [15e6],
                                                     [35e6])
        assert len(intervals) == 4
        cycles = scheduler._pair_cycles(intervals, 15e6, 35e6)
        assert len(cycles) == 3
        assert cycles[0].first_kind == "charge"
        assert cycles[1].first_kind == "discharge"
        # neighbouring cycles share the interval between them
        assert cycles[0].discharge_interval == cycles[1].discharge_interval
        assert cycles[1].charge_interval == cycles[2].charge_interval

    def test_monotone_crossing_gives_one_cycle(self):
        load = np.linspace(10e6, 40e6, 24)
        (intervals,), _ = scheduler._segment_horizon(load[None], [15e6],
                                                     [35e6])
        assert len(scheduler._pair_cycles(intervals, 15e6, 35e6)) == 1

    def test_flat_load_in_dead_band_rejected(self):
        days, error = scheduler._segment_horizon(
            np.full((1, 24), 25e6), [15e6], [35e6])
        assert days == [] and type(error) is EmptyPlanError

    def test_dead_band_samples_attach_to_preceding_interval(self):
        load = np.array([10e6, 25e6, 25e6, 40e6])
        (intervals,), _ = scheduler._segment_horizon(load[None], [15e6],
                                                     [35e6])
        assert [iv.kind for iv in intervals] == ["charge", "discharge"]
        assert intervals[0].stop == 3

    def test_inverted_references_rejected(self):
        days, error = scheduler._segment_horizon(
            np.array([[10e6, 40e6]]), [35e6], [15e6])
        assert days == [] and type(error) is DomainError


def fixed_reference_plan(profile, p_chr_ref_w, p_dis_ref_w, p_r_w, e_r_wh):
    """The plan of a profile of one day (or less) that keeps the
    references on its intervals."""
    (intervals,), error = scheduler._segment_horizon(
        profile.values_w[None], [p_chr_ref_w], [p_dis_ref_w])
    assert error is None
    return ShavingPlan(
        cycles=scheduler._pair_cycles(intervals, p_chr_ref_w, p_dis_ref_w),
        intervals=intervals,
        rated_power_w=p_r_w, rated_energy_wh=e_r_wh,
        p_chr_ref0_w=p_chr_ref_w, p_dis_ref0_w=p_dis_ref_w)


class TestUngatedReplay:
    """replay_horizon(gated=False) integrates the demand law without a
    capacity gate: its trace is the running sum of the demand, past the
    plan's 10 MWh here."""

    def test_rectangle_integral(self):
        # constant 5 MW headroom for 4 hours, one charge interval
        p = profile_from_hours([10.0] * 4)
        plan = fixed_reference_plan(p, 15e6, 35e6, 5e6, 10e6)
        assert len(plan.intervals) == 1
        res = replay_horizon([plan], p, gated=False)
        assert res["demand_w"].tolist() == [5e6] * 4
        assert res["energy_wh"].tolist() == [0.0, 5e6, 10e6, 15e6, 20e6]

    def test_peak_and_return(self):
        p = profile_from_hours([10.0] * 4 + [40.0] * 4)
        plan = fixed_reference_plan(p, 15e6, 35e6, 5e6, 10e6)
        trace = replay_horizon([plan], p, gated=False)["energy_wh"]
        assert trace.tolist() == [0.0, 5e6, 10e6, 15e6, 20e6,
                                  15e6, 10e6, 5e6, 0.0]


class TestImprovedCorrection:
    def test_overcharge_reduces_reference_to_capacity(self):
        day = double_bump_day()
        e_r = 10e6
        plan, = plan_horizon(day, 5e6, e_r, "improved")
        charge_ivs = [iv for iv in plan.intervals if iv.kind == "charge"]
        assert charge_ivs[0].ref_w < plan.p_chr_ref0_w
        replay = replay_horizon([plan], day, gated=False)
        assert replay["energy_wh"].max() <= e_r * 1.001
        assert replay["energy_wh"].min() >= -e_r * 0.001

    def test_satisfied_cycle_is_fixed_point(self):
        day = double_bump_day()
        e_r = 80e6  # far more capacity than the day can move
        plan, = plan_horizon(day, 5e6, e_r, "improved")
        dis_ivs = [iv for iv in plan.intervals if iv.kind == "discharge"]
        assert all(iv.ref_w == plan.p_dis_ref0_w for iv in dis_ivs)

    def test_infeasible_cycle_flagged_not_raised(self):
        # discharge-first day with an empty store: demand cannot be met
        p = profile_from_hours([40.0] * 6 + [25.0] * 18)
        plan, = plan_horizon(p, 5e6, 10e6, "improved")
        assert plan.intervals[0].kind == "discharge"
        assert plan.cycles[0].feasible is False

    def test_asymmetric_day_charges_more_than_original(self):
        day = double_bump_day()
        e_r = 10e6
        improved, = plan_horizon(day, 5e6, e_r, "improved")
        original, = plan_horizon(day, 5e6, e_r, "original")
        e_chr_imp = replay_energy(improved, day, "charge")
        e_chr_org = replay_energy(original, day, "charge")
        assert e_chr_imp > e_chr_org


def replay_energy(plan, day, direction):
    res = replay_horizon([plan], day, gated=True)
    d = res["demand_w"]
    step_h = day.dt_s / 3600.0
    if direction == "charge":
        return float(d[d > 0].sum()) * step_h
    return float(-d[d < 0].sum()) * step_h


class TestOriginalCorrection:
    def test_daily_charge_discharge_symmetric(self):
        day = double_bump_day()
        e_r = 10e6
        plan, = plan_horizon(day, 5e6, e_r, "original")
        e_chr = replay_energy(plan, day, "charge")
        e_dis = replay_energy(plan, day, "discharge")
        assert e_chr == pytest.approx(e_dis, abs=0.003 * e_r)

    def test_references_bounded_by_daily_mid_level(self):
        day = double_bump_day()
        plan, = plan_horizon(day, 5e6, 1e12, "original")
        lo, hi = day.values_w.min(), day.values_w.max()
        mid = 0.5 * (lo + hi)
        for iv in plan.intervals:
            if iv.kind == "charge":
                assert iv.ref_w <= mid
            else:
                assert iv.ref_w >= mid


@pytest.mark.parametrize("method", ["improved", "original"])
@pytest.mark.parametrize("e0", [-1e-9, 10e6 * (1 + 1e-15), math.nan])
def test_plan_start_outside_the_store_rejected(method, e0):
    p = profile_from_hours([10.0] * 2 + [40.0] * 2)
    with pytest.raises(DomainError) as e:
        plan_horizon(p, 5e6, 10e6, method, e0)
    assert e.value.field == "initial_energy_wh"


class TestDepthReferences:
    def test_basic(self):
        p = profile_from_hours([10, 20, 40])
        plan, = plan_horizon(p, 5e6, 10e6, "improved")
        assert plan.p_chr_ref0_w == pytest.approx(15e6)
        assert plan.p_dis_ref0_w == pytest.approx(35e6)

    def test_shallow_range_rejected(self):
        p = profile_from_hours([10, 12])
        with pytest.raises(DomainError) as e:
            plan_horizon(p, 5e6, 10e6, "improved")
        assert e.value.field == "power_depth_w"


class TestMetrics:
    def test_capture_rate_one_when_valley_fully_captured(self):
        day = double_bump_day()
        e_r = 80e6
        plan, = plan_horizon(day, 5e6, e_r, "improved")
        res = replay_horizon([plan], day, gated=True)
        m, = horizon_metrics(day, [plan], res["demand_w"], e_r)
        assert m.cr >= 1.0 - 1e-6

    def test_equivalent_cycles_full_roundtrip(self):
        # one full charge plus one full discharge of the rated energy
        p = profile_from_hours([10.0] * 2 + [40.0] * 2)
        plan, = plan_horizon(p, 5e6, 10e6, "improved")
        res = replay_horizon([plan], p, gated=True)
        m, = horizon_metrics(p, [plan], res["demand_w"], 10e6)
        assert m.e_chr_wh == pytest.approx(10e6, rel=1e-3)
        assert m.equivalent_cycles == pytest.approx(1.0, rel=1e-3)

    def test_gated_replay_stays_inside_capacity(self):
        day = double_bump_day()
        plan, = plan_horizon(day, 5e6, 10e6, "improved")
        res = replay_horizon([plan], day, gated=True)
        assert res["energy_wh"].max() <= 10e6 + 1e-6
        assert res["energy_wh"].min() >= -1e-6

    def test_utilization_nan_without_active_steps(self):
        p = profile_from_hours([10.0, 40.0])
        plan, = plan_horizon(p, 5e6, 10e6, "improved")
        m, = horizon_metrics(p, [plan], np.zeros(2), 10e6,
                             demanded_w=np.zeros(2))
        assert math.isnan(m.power_utilization)


def _gated_loop(plan, profile):
    """replay_horizon(gated=True) of the plan of a profile of one day as a
    sample loop: the oracle of the per-interval clamp."""
    demand = replay_horizon([plan], profile, gated=False)["demand_w"]
    step_wh = profile.dt_s / 3600.0
    e_r = plan.rated_energy_wh
    energy = np.empty(profile.n_samples + 1)
    energy[0] = e = plan.initial_energy_wh
    for i in range(profile.n_samples):
        d_wh = demand[i] * step_wh
        if d_wh > 0 and e + d_wh > e_r:
            d_wh, e = e_r - e, e_r
        elif e + d_wh < 0:
            d_wh, e = -e, 0.0
        else:
            e += d_wh
        demand[i] = d_wh / step_wh
        energy[i + 1] = e
    return demand, energy


@st.composite
def planned_days(draw):
    """One synthetic day (every template field drawn) and its plan: a power
    depth that leaves the references inside the load range, a method, a
    store from a hundredth of one full-power sample (pinned on every
    sample) to a thousand of them, and an initial energy in it (bounds
    included)."""
    hour, sigma = st.floats(0.0, 24.0), st.floats(0.3, 4.0)
    spec = SynthLoadSpec(
        base_w=draw(st.floats(10e6, 40e6)),
        valley_depth_w=draw(st.floats(1e6, 9e6)),
        valley_hour=draw(hour), valley_sigma_h=draw(sigma),
        morning_peak_w=draw(st.floats(0.0, 5e6)),
        morning_hour=draw(hour), morning_sigma_h=draw(sigma),
        evening_peak_w=draw(st.floats(0.0, 8e6)),
        evening_hour=draw(hour), evening_sigma_h=draw(sigma),
        noise_rel=draw(st.floats(0.0, 0.02)),
        noise_ar1=draw(st.floats(0.0, 0.95)),
        day_jitter=draw(st.floats(0.0, 0.1)),
        weekend_factor=draw(st.floats(0.8, 1.0)),
        seasonal_amplitude=draw(st.floats(0.0, 0.1)),
        dt_s=draw(st.sampled_from([60.0, 300.0, 900.0])))
    day = synth_load(spec, draw(st.integers(0, 2**16)))
    spread = float(day.values_w.max() - day.values_w.min())
    # a flat day has depth 0, which plan_horizon rejects
    assume(spread > 0)
    depth = draw(st.floats(0.02, 0.45)) * spread
    e_r = 10 ** draw(st.floats(-2.0, 3.0)) * depth * spec.dt_s / 3600.0
    e0 = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))) * e_r
    method = draw(st.sampled_from(["improved", "original"]))
    plan, = plan_horizon(day, depth, e_r, method, e0)
    return day, plan


class TestPlanProperties:
    """Plan-layer invariants over drawn days, plants and methods."""

    @settings(max_examples=150)
    @given(planned_days())
    def test_gated_replay(self, drawn):
        day, plan = drawn
        gated = replay_horizon([plan], day, gated=True)
        demand, energy = _gated_loop(plan, day)
        # the per-interval clamp is the sample loop bit for bit, signed
        # zeros included
        assert gated["demand_w"].tobytes() == demand.tobytes()
        assert gated["energy_wh"].tobytes() == energy.tobytes()
        e_r = plan.rated_energy_wh
        assert np.all(energy >= 0.0)
        assert np.all(energy <= e_r)
        # every demand is truncated, never turned: the gate sees it as
        # (demand * step) / step, which may be an ulp above the demand
        step_wh = day.dt_s / 3600.0
        free = replay_horizon([plan], day, gated=False)["demand_w"]
        # the gated call also returns the demand it truncated
        assert gated["demanded_w"].tobytes() == free.tobytes()
        assert np.all((demand == 0.0) | (np.sign(demand) == np.sign(free)))
        assert np.all(np.abs(demand) <= np.abs(free * step_wh / step_wh))

    def test_store_ends_at_the_bound_it_passes(self):
        # d <= e_r - e as computed, yet e + d rounds past e_r: the clamp
        # leaves the store at e_r exactly, so the next charging sample is
        # clamped to +0.0, not turned into a discharge
        ref = 4.542716054405581
        day = LoadProfile(START, 3600.0, np.array([0.0, ref - 1.0]))
        plan = replace(fixed_reference_plan(day, ref, 100.0, 10.0,
                                            7.402473781645857),
                       initial_energy_wh=2.8597577272402765)
        assert len(plan.intervals) == 1
        gated = replay_horizon([plan], day, gated=True)
        demand, energy = _gated_loop(plan, day)
        assert gated["demand_w"].tobytes() == demand.tobytes()
        assert gated["energy_wh"].tobytes() == energy.tobytes()
        assert energy.tolist() == [2.8597577272402765, 7.402473781645857,
                                   7.402473781645857]
        assert demand[1] == 0.0 and not np.signbit(demand[1])

    def test_full_store_keeps_a_charge_too_small_to_move_it(self):
        # 8 + 2.2e-16 rounds to 8: the rule adds such a d, it clamps none
        day = LoadProfile(START, 3600.0, np.array([1.0, np.nextafter(2.0, 0)]))
        plan = replace(fixed_reference_plan(day, 2.0, 100.0, 10.0, 8.0),
                       initial_energy_wh=7.5)
        gated = replay_horizon([plan], day, gated=True)
        demand, energy = _gated_loop(plan, day)
        assert gated["demand_w"].tobytes() == demand.tobytes()
        assert gated["energy_wh"].tobytes() == energy.tobytes()
        assert demand.tolist() == [0.5, 2.0 - np.nextafter(2.0, 0)]
        assert energy.tolist() == [7.5, 8.0, 8.0]

    def test_pinned_store(self):
        # 200 kWh fills in three 5 MW samples at 60 s: the store sits at
        # each bound for long runs of samples pushing past it
        day = double_bump_day()
        plan, = plan_horizon(day, 5e6, 200e3, "improved")
        gated = replay_horizon([plan], day, gated=True)
        demand, energy = _gated_loop(plan, day)
        assert gated["demand_w"].tobytes() == demand.tobytes()
        assert gated["energy_wh"].tobytes() == energy.tobytes()
        assert np.sum(energy == 200e3) > 100 and np.sum(energy == 0.0) > 100

    @settings(max_examples=150)
    @given(planned_days())
    def test_references_lie_within_the_load_range(self, drawn):
        # corrections bisect between bounds inside [min, max] of the load
        day, plan = drawn
        lo, hi = day.values_w.min(), day.values_w.max()
        refs = [iv.ref_w for iv in plan.intervals] + [
            r for c in plan.cycles for r in (c.p_chr_ref_w, c.p_dis_ref_w)]
        assert all(lo <= r <= hi for r in refs)

    @settings(max_examples=150)
    @given(planned_days())
    def test_intervals_partition_the_day(self, drawn):
        day, plan = drawn
        intervals = plan.intervals
        assert intervals[0].start == 0
        assert intervals[-1].stop == day.n_samples
        for a, b in zip(intervals, intervals[1:]):
            assert a.start < a.stop == b.start
            assert a.kind != b.kind
        assert {iv.kind for iv in intervals} <= {"charge", "discharge"}


# The per-day procedures: the oracle of the planner, the replay and the
# metrics, which take all days at once. The corrections run one scalar
# bisection at a time and read the tolerance and the iteration cap from
# the module, as the planner does.

def days_of(profile):
    """The profile's days, one LoadProfile each: its full days of
    samples_per_day samples, then a short last day if there is one."""
    n = profile.samples_per_day()
    return [LoadProfile(profile.start_time, profile.dt_s,
                        profile.values_w[k:k + n])
            for k in range(0, profile.n_samples, n)]


def _oracle_demand(load, kind, ref_w, p_r_w):
    if kind == "charge":
        return np.clip(ref_w - load, 0.0, p_r_w)
    return -np.clip(load - ref_w, 0.0, p_r_w)


def _oracle_depth_references(profile, power_depth_w):
    lo, hi = float(profile.values_w.min()), float(profile.values_w.max())
    if hi - lo <= 2.0 * power_depth_w:
        raise DomainError(
            "daily load range must exceed twice the power depth for the "
            "references to bracket the load", field="power_depth_w")
    return lo + power_depth_w, hi - power_depth_w


def _oracle_segment(profile, p_chr_ref_w, p_dis_ref_w):
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
    intervals = []
    for start, stop in zip(bounds, bounds[1:]):
        kind = "charge" if filled[start] == 1 else "discharge"
        ref = p_chr_ref_w if kind == "charge" else p_dis_ref_w
        intervals.append(Interval(kind, start, stop, ref))
    return intervals


def _oracle_replay(plan, profile, gated=True):
    demand = np.zeros(profile.n_samples)
    for iv in plan.intervals:
        demand[iv.start:iv.stop] = _oracle_demand(
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


def _oracle_metrics(profile, plan, executed_w, e_rate_wh, demanded_w=None):
    executed_w = np.asarray(executed_w, dtype=float)
    step_wh = profile.dt_s / 3600.0
    e_chr = float(np.sum(executed_w[executed_w > 0]) * step_wh)
    e_dis = float(-np.sum(executed_w[executed_w < 0]) * step_wh)
    load, p_r = profile.values_w, plan.rated_power_w
    e_val = float(np.sum(_oracle_demand(
        load, "charge", plan.p_chr_ref0_w, p_r)) * step_wh)
    e_pek = float(np.sum(np.abs(_oracle_demand(
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


def _oracle_energy_wh(load, kind, ref_w, p_r_w, dt_s):
    demand = _oracle_demand(load, kind, ref_w, p_r_w)
    return float(np.sum(np.abs(demand)) * dt_s / 3600.0)


def _oracle_bisect(energy_fn, lo, hi, target_wh, tol_wh, increasing,
                   outcomes=None):
    """Bisection of a monotone interval energy; outcomes, when given,
    collects how each call ended: 'bound', 'middle' or 'cap'."""
    log = outcomes.append if outcomes is not None else (lambda _: None)
    e_lo, e_hi = energy_fn(lo), energy_fn(hi)
    lo_val, hi_val = (e_lo, e_hi) if increasing else (e_hi, e_lo)
    if target_wh >= hi_val - tol_wh:
        log("bound")
        return (hi if increasing else lo), hi_val >= target_wh - tol_wh
    if target_wh <= lo_val + tol_wh:
        log("bound")
        return (lo if increasing else hi), True
    a, b = lo, hi
    for _ in range(scheduler.CORRECTION_MAX_ITERATIONS):
        mid = 0.5 * (a + b)
        e = energy_fn(mid)
        if abs(e - target_wh) <= tol_wh:
            log("middle")
            return mid, True
        if (e < target_wh) == increasing:
            a = mid
        else:
            b = mid
    log("cap")
    return 0.5 * (a + b), False


def _oracle_improved(profile, p_r_w, e_r_wh, p_chr_ref0_w, p_dis_ref0_w,
                     initial_energy_wh=0.0, outcomes=None):
    intervals = _oracle_segment(profile, p_chr_ref0_w, p_dis_ref0_w)
    tol = scheduler.CORRECTION_TOLERANCE_FRAC * e_r_wh
    load = profile.values_w
    lo_bound = float(load.min())
    hi_bound = float(load.max())
    gap = max(1e-6 * (hi_bound - lo_bound), 1e-6)
    feasible_flags = []
    energy = float(initial_energy_wh)

    def bisect(*args):
        return _oracle_bisect(*args, outcomes=outcomes)

    for idx, iv in enumerate(intervals):
        nxt = intervals[idx + 1] if idx + 1 < len(intervals) else None

        def e_iv(r, seg=load[iv.start:iv.stop], kind=iv.kind):
            return _oracle_energy_wh(seg, kind, r, p_r_w, profile.dt_s)
        e_next = (_oracle_energy_wh(load[nxt.start:nxt.stop], nxt.kind,
                                    nxt.ref_w, p_r_w, profile.dt_s)
                  if nxt is not None else 0.0)
        e_now = e_iv(iv.ref_w)
        ok = True
        if iv.kind == "charge":
            if energy + e_now > e_r_wh + tol:
                iv.ref_w, ok = bisect(e_iv, lo_bound, iv.ref_w,
                                      e_r_wh - energy, tol, True)
                ok = ok and e_r_wh - energy > tol
            elif energy + e_now < e_next and energy + e_now < e_r_wh - tol:
                hi = (nxt.ref_w if nxt is not None else p_dis_ref0_w) - gap
                target = min(e_next, e_r_wh) - energy
                if hi > iv.ref_w:
                    iv.ref_w, _ = bisect(e_iv, iv.ref_w, hi, target, tol,
                                         True)
            energy = min(energy + e_iv(iv.ref_w), e_r_wh)
        else:
            if e_now > energy + tol:
                iv.ref_w, ok = bisect(e_iv, iv.ref_w, hi_bound, energy, tol,
                                      False)
                ok = ok and energy > tol
            elif energy - e_now + e_next > e_r_wh + tol and energy - e_now > tol:
                lo = (nxt.ref_w if nxt is not None else p_chr_ref0_w) + gap
                target = energy + e_next - e_r_wh
                if lo < iv.ref_w:
                    iv.ref_w, _ = bisect(e_iv, lo, iv.ref_w, target, tol,
                                         False)
            energy = max(energy - e_iv(iv.ref_w), 0.0)
        feasible_flags.append(ok)

    cycles = scheduler._pair_cycles(intervals, p_chr_ref0_w, p_dis_ref0_w)
    for n, cyc in enumerate(cycles):
        flags = feasible_flags[n:n + 2] if len(intervals) > 1 else feasible_flags
        cyc.feasible = all(flags)
    return ShavingPlan(
        cycles=cycles, intervals=intervals,
        rated_power_w=p_r_w, rated_energy_wh=e_r_wh,
        p_chr_ref0_w=p_chr_ref0_w, p_dis_ref0_w=p_dis_ref0_w,
        initial_energy_wh=initial_energy_wh)


def _oracle_original(profile, p_r_w, e_r_wh, p_chr_ref0_w, p_dis_ref0_w,
                     initial_energy_wh=0.0, outcomes=None):
    load = profile.values_w
    lo, hi = float(load.min()), float(load.max())
    mid = 0.5 * (lo + hi)
    gap = 0.005 * (hi - lo)
    tol = scheduler.CORRECTION_TOLERANCE_FRAC * e_r_wh

    def e_chr(r):
        return _oracle_energy_wh(load, "charge", r, p_r_w, profile.dt_s)

    def e_dis(r):
        return _oracle_energy_wh(load, "discharge", r, p_r_w, profile.dt_s)

    chr_hi = max(mid - gap, p_chr_ref0_w)
    dis_lo = min(mid + gap, p_dis_ref0_w)
    target = min(e_chr(chr_hi), e_dis(dis_lo), e_r_wh)
    r_chr, ok_c = _oracle_bisect(e_chr, lo, chr_hi, target, tol, True,
                                 outcomes)
    r_dis, ok_d = _oracle_bisect(e_dis, dis_lo, hi, target, tol, False,
                                 outcomes)

    intervals = _oracle_segment(profile, r_chr, r_dis)
    cycles = scheduler._pair_cycles(intervals, r_chr, r_dis)
    for cyc in cycles:
        cyc.feasible = ok_c and ok_d
    return ShavingPlan(
        cycles=cycles, intervals=intervals,
        rated_power_w=p_r_w, rated_energy_wh=e_r_wh,
        p_chr_ref0_w=p_chr_ref0_w, p_dis_ref0_w=p_dis_ref0_w,
        initial_energy_wh=initial_energy_wh)


def _oracle_plan_horizon(profile, power_depth_w, rated_energy_wh, method,
                         initial_energy_wh=0.0, outcomes=None):
    """plan_horizon one day at a time."""
    correct = {"improved": _oracle_improved,
               "original": _oracle_original}[method]
    plans = []
    for k, day in enumerate(days_of(profile)):
        try:
            refs = _oracle_depth_references(day, power_depth_w)
        except DomainError as exc:
            raise DomainError(f"day {k}: {exc}", field=exc.field) from None
        plans.append(correct(day, power_depth_w, rated_energy_wh, *refs,
                             initial_energy_wh, outcomes))
    return plans


def _plan_bits(plan):
    """Everything a plan says, references by float.hex, with the Python
    types of the references and flags."""
    return (
        [(iv.kind, iv.start, iv.stop, type(iv.ref_w), float.hex(iv.ref_w))
         for iv in plan.intervals],
        [(c.index, c.first_kind, c.charge_interval, c.discharge_interval,
          type(c.p_chr_ref_w), float.hex(c.p_chr_ref_w),
          type(c.p_dis_ref_w), float.hex(c.p_dis_ref_w),
          type(c.feasible), c.feasible) for c in plan.cycles],
        (plan.rated_power_w, plan.rated_energy_wh, plan.p_chr_ref0_w,
         plan.p_dis_ref0_w, plan.initial_energy_wh))


def _outcome(fn, *args, **kwargs):
    """fn's plans as _plan_bits, or the type, message and field of what it
    raised."""
    try:
        return [_plan_bits(p) for p in fn(*args, **kwargs)]
    except BessimError as exc:
        return type(exc), str(exc), getattr(exc, "field", None)


@st.composite
def horizons(draw):
    """1-10 synthetic days at 300, 600 or 900 s, the last one cut short by
    up to all but two samples, with a morning peak or none (2 to 9
    intervals a day), a power depth inside every day's load range, a
    store of 1e5-3e7 Wh and an initial energy in it (bounds included)."""
    dt_s = draw(st.sampled_from([300.0, 600.0, 900.0]))
    spec = SynthLoadSpec(
        days=draw(st.integers(1, 10)), dt_s=dt_s,
        valley_depth_w=draw(st.floats(1e6, 9e6)),
        morning_peak_w=draw(st.sampled_from([0.0, 6e6])),
        morning_hour=draw(st.floats(7.0, 13.0)),
        noise_rel=draw(st.floats(0.0, 0.02)),
        day_jitter=draw(st.floats(0.0, 0.1)))
    profile = synth_load(spec, draw(st.integers(0, 2**16)))
    cut = draw(st.integers(0, int(86400 / dt_s) - 2))
    profile = LoadProfile(START, dt_s,
                          profile.values_w[:profile.n_samples - cut])
    spread = min(float(d.values_w.max() - d.values_w.min())
                 for d in days_of(profile))
    assume(spread > 0)
    depth = draw(st.floats(0.02, 0.45)) * spread
    e_r = draw(st.floats(1e5, 3e7))
    e0 = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))) * e_r
    return profile, depth, e_r, e0


class TestPlanHorizonOracle:
    """plan_horizon plans every day at once, bit for bit as the per-day
    procedures above."""

    @settings(max_examples=120)
    @given(horizons())
    def test_equals_the_per_day_oracle(self, drawn):
        profile, depth, e_r, e0 = drawn
        for method in ("improved", "original"):
            got = _outcome(plan_horizon, profile, depth, e_r, method, e0)
            want = _outcome(_oracle_plan_horizon, profile, depth, e_r, method,
                            e0)
            assert got == want

    @pytest.mark.parametrize("method", ["improved", "original"])
    @pytest.mark.parametrize("load_mw", [
        None,
        # a day that discharges first, and one that charges first
        [40.0] * 6 + [25.0] * 18,
        [10.0] * 6 + [25.0] * 18,
    ])
    def test_one_day_is_the_oracle(self, method, load_mw):
        day = (double_bump_day() if load_mw is None
               else profile_from_hours(load_mw))
        for e_r in (200e3, 10e6, 80e6):
            for e0 in (0.0, 0.5 * e_r, e_r):
                got = _outcome(plan_horizon, day, 5e6, e_r, method, e0)
                want = _outcome(_oracle_plan_horizon, day, 5e6, e_r, method,
                                e0)
                assert got == want

    def test_iteration_cap_and_mixed_convergence(self, monkeypatch):
        # With no tolerance a lane stops inside its range only on an exact
        # hit. Each day's charge lane meets its target (its 10 MW samples
        # saturated at 5 MW) at its inner end. Day 0's discharge lane
        # meets it on a plateau of its energy (the 40 MW samples saturated,
        # none of the 33 MW ones discharging) at the third midpoint; day
        # 1's would need 15/7 MW below the peak and stops at the cap. The
        # same batch bisects all four.
        monkeypatch.setattr(scheduler, "CORRECTION_TOLERANCE_FRAC", 0.0)
        plateau = [10.0] * 4 + [25.0] * 12 + [33.0] * 4 + [40.0] * 4
        capped = [10.0] * 3 + [25.0] * 14 + [40.0] * 7
        profile = profile_from_hours(plateau + capped)
        outcomes = []
        want = _oracle_plan_horizon(profile, 5e6, 1e12, "original",
                                    outcomes=outcomes)
        assert outcomes == ["bound", "middle", "bound", "cap"]
        got = plan_horizon(profile, 5e6, 1e12, "original")
        assert [_plan_bits(p) for p in got] == [_plan_bits(p) for p in want]
        assert [c.feasible for p in got for c in p.cycles] == [True, False]
        # the improved method, its lanes capped too, on the same days
        outcomes = []
        want = _oracle_plan_horizon(profile, 5e6, 30e6, "improved", 10e6,
                                    outcomes=outcomes)
        assert "cap" in outcomes
        got = plan_horizon(profile, 5e6, 30e6, "improved", 10e6)
        assert [_plan_bits(p) for p in got] == [_plan_bits(p) for p in want]


    @pytest.mark.parametrize("method", ["improved", "original"])
    def test_few_iterations(self, method, monkeypatch):
        # a cap of 3 steps stops most lanes far from their target, where
        # the energy at the final midpoint moves the store of the days
        monkeypatch.setattr(scheduler, "CORRECTION_MAX_ITERATIONS", 3)
        spec = SynthLoadSpec(days=6, dt_s=900.0, valley_depth_w=3e6,
                             morning_peak_w=6e6, morning_hour=9.0)
        profile = synth_load(spec, 5)
        for e_r in (1e6, 3e6, 10e6):
            outcomes = []
            want = _oracle_plan_horizon(profile, 4e6, e_r, method, 0.5 * e_r,
                                        outcomes=outcomes)
            assert "cap" in outcomes
            got = plan_horizon(profile, 4e6, e_r, method, 0.5 * e_r)
            assert ([_plan_bits(p) for p in got]
                    == [_plan_bits(p) for p in want])


class TestFlatDay:
    """A day that cannot bracket the depth stops the horizon there."""

    @staticmethod
    def horizon(flat_day):
        return profile_from_hours(np.concatenate([
            [25.0] * 24 if k == flat_day else [10.0] * 12 + [40.0] * 12
            for k in range(4)]))

    @pytest.mark.parametrize("method", ["improved", "original"])
    @pytest.mark.parametrize("flat_day", [0, 2, 3])
    def test_named_after_the_days_before_it(self, method, flat_day,
                                            monkeypatch):
        profile = self.horizon(flat_day)
        segmented = []
        segment = scheduler._segment_horizon

        def spy(load, *refs):
            segmented.append(load.tolist())
            return segment(load, *refs)
        monkeypatch.setattr(scheduler, "_segment_horizon", spy)
        with pytest.raises(DomainError) as e:
            plan_horizon(profile, 5e6, 10e6, method)
        assert e.value.field == "power_depth_w"
        assert str(e.value).startswith(f"day {flat_day}: daily load range")
        # the days before it are planned, no day after it
        before = profile.values_w[:24 * flat_day].reshape(flat_day, 24)
        assert segmented == ([before.tolist()] if flat_day else [])

    @pytest.mark.parametrize("method", ["improved", "original"])
    @pytest.mark.parametrize("last_day", [[25.0] * 5, [25.0]],
                             ids=["flat short", "one sample"])
    def test_short_last_day_named_after_the_full_days(self, method,
                                                      last_day):
        # the shallow day is the second part's only row: it is named by
        # the days before it, not by its row in its part
        profile = profile_from_hours([10.0] * 12 + [40.0] * 12
                                     + [12.0] * 12 + [38.0] * 12 + last_day)
        with pytest.raises(DomainError) as e:
            plan_horizon(profile, 5e6, 10e6, method)
        assert e.value.field == "power_depth_w"
        assert str(e.value).startswith("day 2: daily load range")

    @pytest.mark.parametrize("method", ["improved", "original"])
    @pytest.mark.parametrize("flat_day", [0, 2])
    def test_error_order_is_the_oracle(self, method, flat_day):
        # an initial energy outside the store fails day 0's plan: after a
        # flat day 0, before a flat day 2
        profile = self.horizon(flat_day)
        for e0 in (5e6, -1.0):
            got = _outcome(plan_horizon, profile, 5e6, 10e6, method, e0)
            want = _outcome(_oracle_plan_horizon, profile, 5e6, 10e6, method,
                            e0)
            assert got == want
        assert got[2] == ("power_depth_w" if flat_day == 0
                          else "initial_energy_wh")


def _float_bits(values):
    """The float64 bits of values, signed zeros and NaNs told apart."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _metrics_bits(m):
    return [(type(v), _float_bits([v])) for v in
            (getattr(m, f.name) for f in fields(ShavingMetrics))]


@st.composite
def day_tables(draw):
    """1-10 synthetic days at 60, 300 or 900 s, the last one cut short by
    up to all but two samples, and a plan for each: either 1-4 intervals
    a day (cut points, first kind and references inside the day's load
    range drawn) with initial references that may leave no valley or no
    peak, or the plans of either method. The rated power is at most the
    load's swing, the store a few full-power samples at most, so that
    clamps bind, and the initial energy 0, half the store or all of it."""
    dt_s = draw(st.sampled_from([60.0, 300.0, 900.0]))
    spec = SynthLoadSpec(
        days=draw(st.integers(1, 10)), dt_s=dt_s,
        valley_depth_w=draw(st.floats(1e6, 9e6)),
        morning_peak_w=draw(st.sampled_from([0.0, 6e6])),
        noise_rel=draw(st.floats(0.0, 0.02)))
    full = synth_load(spec, draw(st.integers(0, 2**16)))
    cut = draw(st.integers(0, int(86400 / dt_s) - 2))
    profile = LoadProfile(START, dt_s, full.values_w[:full.n_samples - cut])
    days = days_of(profile)
    spread = min(float(d.values_w.max() - d.values_w.min()) for d in days)
    assume(spread > 0)
    p_r = 10 ** draw(st.floats(-2.0, 0.0)) * spread
    e_r = 10 ** draw(st.floats(-1.0, 1.5)) * p_r * dt_s / 3600.0
    e0 = draw(st.sampled_from([0.0, 0.5, 1.0])) * e_r
    source = draw(st.sampled_from(["drawn", "improved", "original"]))
    if source != "drawn":
        depth = draw(st.floats(0.02, 0.45)) * spread
        try:
            plans = plan_horizon(profile, depth, e_r, source, e0)
        except BessimError:
            assume(False)
        return profile, days, [replace(p, rated_power_w=p_r) for p in plans]
    plans = []
    for day in days:
        n = day.n_samples
        lo, hi = float(day.values_w.min()), float(day.values_w.max())
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), unique=True,
                                    max_size=min(3, n - 1))))
        charge = draw(st.booleans())
        intervals = []
        for start, stop in zip([0, *cuts], [*cuts, n]):
            ref = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
            intervals.append(Interval("charge" if charge else "discharge",
                                      start, stop, ref))
            charge = not charge
        # below the minimum: no valley; above the maximum: no peak
        chr0 = lo + draw(st.floats(-0.1, 0.5)) * (hi - lo)
        dis0 = lo + draw(st.floats(0.5, 1.1)) * (hi - lo)
        plans.append(ShavingPlan(cycles=[], intervals=intervals,
                                 rated_power_w=p_r, rated_energy_wh=e_r,
                                 p_chr_ref0_w=chr0, p_dis_ref0_w=dis0,
                                 initial_energy_wh=e0))
    return profile, days, plans


class TestHorizonOracle:
    """Segmentation, replay and metrics take every day at once, bit for
    bit as the per-day procedures above."""

    @settings(max_examples=150)
    @given(day_tables(), st.data())
    def test_replay_and_metrics(self, drawn, data):
        profile, days, plans = drawn
        for gated in (False, True):
            got = replay_horizon(plans, profile, gated)
            want = [_oracle_replay(p, d, gated) for p, d in zip(plans, days)]
            assert set(got) == set(want[0])
            for key in got:
                assert (_float_bits(got[key])
                        == _float_bits(np.concatenate([w[key] for w in want])))
        executed = got["demand_w"]
        demanded = data.draw(st.sampled_from(["free", "none", "idle day"]))
        demanded = {"free": got["demanded_w"], "none": None,
                    "idle day": np.where(
                        np.arange(profile.n_samples)
                        // profile.samples_per_day() == 0,
                        0.0, got["demanded_w"])}[demanded]
        e_rate = plans[0].rated_energy_wh
        metrics = horizon_metrics(profile, plans, executed, e_rate, demanded)
        at = np.cumsum([0, *(d.n_samples for d in days)])
        for k, (m, plan, day) in enumerate(zip(metrics, plans, days)):
            part = slice(at[k], at[k + 1])
            want = _oracle_metrics(
                day, plan, executed[part], e_rate,
                None if demanded is None else demanded[part])
            assert _metrics_bits(m) == _metrics_bits(want)
        # the last day alone, its own profile of one day
        plan, day = plans[-1], days[-1]
        one = replay_horizon([plan], day, gated=True)
        want = _oracle_replay(plan, day, gated=True)
        assert all(_float_bits(one[k]) == _float_bits(want[k]) for k in one)
        m, = horizon_metrics(day, [plan], one["demand_w"], e_rate)
        assert (_metrics_bits(m)
                == _metrics_bits(_oracle_metrics(day, plan, one["demand_w"],
                                                 e_rate)))

    @settings(max_examples=100)
    @given(day_tables(), st.data())
    def test_segmentation(self, drawn, data):
        # references anywhere around each day's load range: inverted pairs
        # and pairs that label no sample fail the day, and the first
        # failing day ends the horizon
        profile, days, _ = drawn
        refs = []
        for day in days:
            lo, hi = float(day.values_w.min()), float(day.values_w.max())
            refs.append(sorted(lo + data.draw(st.floats(-0.2, 1.2))
                               * (hi - lo) for _ in range(2))[::data.draw(
                                   st.sampled_from([1, 1, 1, -1]))])
        chr0, dis0 = (list(r) for r in zip(*refs))
        got, error = [], None
        for a, load in scheduler._parts(profile):
            part, error = scheduler._segment_horizon(
                load, chr0[a:a + len(load)], dis0[a:a + len(load)])
            got += part
            if error is not None:
                break
        want = []
        for day, (c, d) in zip(days, refs):
            try:
                want.append(_oracle_segment(day, c, d))
            except BessimError as exc:
                assert (type(error), str(error)) == (type(exc), str(exc))
                break
        else:
            assert error is None
        assert ([[(iv.kind, iv.start, iv.stop, float.hex(iv.ref_w))
                  for iv in ivs] for ivs in got]
                == [[(iv.kind, iv.start, iv.stop, float.hex(iv.ref_w))
                     for iv in ivs] for ivs in want])
        assert all(type(x) is int for ivs in got for iv in ivs
                   for x in (iv.start, iv.stop))


class TestPlansMakeUpTheProfile:
    """replay_horizon and horizon_metrics take one plan for each of the
    profile's days (its full days, then a short last day if there is one),
    and power series that cover the profile."""

    SPEC = SynthLoadSpec(days=3, dt_s=900.0)
    PROFILE = synth_load(SPEC, 1)
    PLANS = plan_horizon(PROFILE, 2e6, 10e6, "improved")

    @staticmethod
    def uses(plans, profile):
        """Every call that reads the plans against the profile."""
        zeros = np.zeros(profile.n_samples)
        return [lambda: replay_horizon(plans, profile, gated=False),
                lambda: replay_horizon(plans, profile, gated=True),
                lambda: horizon_metrics(profile, plans, zeros, 10e6),
                lambda: horizon_metrics(profile, plans, zeros, 10e6, zeros)]

    @pytest.mark.parametrize("case", ["one day short", "one day over",
                                      "another profile's days",
                                      "a short last day"])
    def test_plans_of_other_days_rejected(self, case):
        profile, plans = self.PROFILE, self.PLANS
        if case == "one day short":
            plans = plans[:-1]
        elif case == "one day over":
            plans = plans + plans[:1]
        elif case == "another profile's days":
            other = synth_load(replace(self.SPEC, days=2), 1)
            plans = plan_horizon(other, 2e6, 10e6, "improved")
        else:
            profile = LoadProfile(START, profile.dt_s,
                                  profile.values_w[:-10])
        for use in self.uses(plans, profile):
            with pytest.raises(DomainError):
                use()

    def test_plans_of_as_many_samples_at_another_step_rejected(self):
        # one day at 300 s holds as many samples as three days at 900 s
        other = synth_load(replace(self.SPEC, days=1, dt_s=300.0), 1)
        plans = plan_horizon(other, 2e6, 10e6, "improved")
        assert other.n_samples == self.PROFILE.n_samples
        for use in self.uses(plans, self.PROFILE):
            with pytest.raises(DomainError):
                use()

    def test_step_that_does_not_divide_a_day_rejected(self):
        # a profile at 7000 s has no days to plan, replay or score
        profile = LoadProfile(START, 7000.0, self.PROFILE.values_w[:30])
        for use in [lambda: plan_horizon(profile, 2e6, 10e6, "improved"),
                    *self.uses(self.PLANS, profile)]:
            with pytest.raises(DomainError) as e:
                use()
            assert e.value.field == "dt_s"

    @pytest.mark.parametrize("series", ["executed_w", "demanded_w"])
    @pytest.mark.parametrize("shape", ["one sample short", "one sample over",
                                       "a column"])
    def test_power_series_must_cover_the_profile(self, series, shape):
        n = self.PROFILE.n_samples
        bad = {"one sample short": np.zeros(n - 1),
               "one sample over": np.zeros(n + 1),
               "a column": np.zeros((n, 1))}[shape]
        kwargs = {"executed_w": np.zeros(n), "demanded_w": np.zeros(n),
                  series: bad}
        with pytest.raises(DomainError):
            horizon_metrics(self.PROFILE, self.PLANS, e_rate_wh=10e6,
                            **kwargs)


class TestLayouts:
    """The three layouts of a horizon's days that _parts tells apart, each
    through plan_horizon, replay_horizon and horizon_metrics, bit for bit
    as the per-day procedures: a short day only, full days, and full days
    then a short day."""

    LOAD = synth_load(SynthLoadSpec(days=4, dt_s=900.0), 2).values_w

    @pytest.mark.parametrize("method", ["improved", "original"])
    @pytest.mark.parametrize("n,parts", [
        (80, [(0, (1, 80))]),
        (3 * 96, [(0, (3, 96))]),
        (3 * 96 + 80, [(0, (3, 96)), (3, (1, 80))]),
    ], ids=["a short day only", "full days", "full days and a short day"])
    def test_layout_is_the_oracle(self, method, n, parts):
        profile = LoadProfile(START, 900.0, self.LOAD[:n])
        assert [(a, load.shape)
                for a, load in scheduler._parts(profile)] == parts
        # a store of a few full-power samples, so that the gate binds
        plans = plan_horizon(profile, 2e6, 1e6, method, 0.5e6)
        want = _oracle_plan_horizon(profile, 2e6, 1e6, method, 0.5e6)
        assert [_plan_bits(p) for p in plans] == [_plan_bits(p) for p in want]
        days = days_of(profile)
        for gated in (False, True):
            got = replay_horizon(plans, profile, gated)
            per_day = [_oracle_replay(p, d, gated) for p, d in zip(plans, days)]
            assert set(got) == set(per_day[0])
            for key in got:
                assert (_float_bits(got[key]) == _float_bits(
                    np.concatenate([w[key] for w in per_day])))
        assert np.any(got["demand_w"] != got["demanded_w"])
        metrics = horizon_metrics(profile, plans, got["demand_w"], 1e6,
                                  got["demanded_w"])
        assert len(metrics) == len(days)
        for m, plan, day, w in zip(metrics, plans, days, per_day):
            assert _metrics_bits(m) == _metrics_bits(_oracle_metrics(
                day, plan, w["demand_w"], 1e6, w["demanded_w"]))


@st.composite
def improved_horizons(draw):
    """1-5 synthetic days at 60, 300 or 900 s, a power depth of 5-30% of
    the smallest daily load range, a store of 1-40 MWh starting empty,
    half full or full, and the improved plan of every day."""
    spec = SynthLoadSpec(
        days=draw(st.integers(1, 5)),
        dt_s=draw(st.sampled_from([60.0, 300.0, 900.0])),
        valley_depth_w=draw(st.floats(1e6, 9e6)),
        morning_peak_w=draw(st.sampled_from([0.0, 6e6])),
        evening_peak_w=draw(st.floats(2e6, 8e6)),
        noise_rel=draw(st.floats(0.0, 0.02)))
    profile = synth_load(spec, draw(st.integers(0, 2**16)))
    spread = min(float(d.values_w.max() - d.values_w.min())
                 for d in days_of(profile))
    depth = draw(st.floats(0.05, 0.3)) * spread
    e_r = draw(st.floats(1e6, 40e6))
    e0 = draw(st.sampled_from([0.0, 0.5, 1.0])) * e_r
    return profile, plan_horizon(profile, depth, e_r, "improved", e0)


class TestFeasibleDaysStayInTheStore:
    """A day of an improved plan whose cycles are all flagged feasible
    keeps its ungated trace, the running sum of the planned demand from
    the initial energy, inside the store to the correction tolerance.

    The original method has no such property and nothing is asserted for
    it: its one symmetric reference pair a day is corrected without
    reading the store, so from an empty store a day that discharges
    first leaves the band (most drawn days at e0 = 0 do)."""

    @settings(max_examples=100)
    @given(improved_horizons())
    def test_ungated_trace(self, drawn):
        profile, plans = drawn
        trace = replay_horizon(plans, profile, gated=False)["energy_wh"]
        at = np.cumsum([0, *(d.n_samples + 1 for d in days_of(profile))])
        for plan, a, b in zip(plans, at, at[1:]):
            if not all(c.feasible for c in plan.cycles):
                continue
            tol = scheduler.CORRECTION_TOLERANCE_FRAC * plan.rated_energy_wh
            day = trace[a:b]
            assert day.min() >= -tol
            assert day.max() <= plan.rated_energy_wh + tol
