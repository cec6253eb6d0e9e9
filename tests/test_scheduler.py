import math
from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bessim.errors import DomainError, EmptyPlanError
from bessim.profiles import SynthLoadSpec, synth_load
from bessim.scheduler import (
    LoadProfile,
    ShavingPlan,
    compute_metrics,
    correct_references_improved,
    correct_references_original,
    demand_power,
    depth_references,
    replay_plan,
    segment_cycles,
    segment_intervals,
)

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

    def test_split_days(self):
        p = double_bump_day()
        days = LoadProfile(START, p.dt_s,
                           np.concatenate([p.values_w, p.values_w])).split_days()
        assert len(days) == 2
        assert days[0].n_samples == p.n_samples

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
        correct = {"improved": correct_references_improved,
                   "original": correct_references_original}[method]
        plan = correct(day, 5e6, 10e6, *depth_references(day, 5e6))
        planned = replay_plan(plan, day, gated=False)["demand_w"]
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
    def test_two_valley_two_peak_day_pairs_three_cycles(self):
        # charge, discharge, charge, discharge -> overlapping pairs
        load = [10, 10, 25, 40, 40, 25, 10, 10, 25, 40, 40, 25]
        p = profile_from_hours(load)
        intervals = segment_intervals(p, 15e6, 35e6)
        assert len(intervals) == 4
        cycles = segment_cycles(p, 15e6, 35e6)
        assert len(cycles) == 3
        assert cycles[0].first_kind == "charge"
        assert cycles[1].first_kind == "discharge"
        # neighbouring cycles share the interval between them
        assert cycles[0].discharge_interval == cycles[1].discharge_interval
        assert cycles[1].charge_interval == cycles[2].charge_interval

    def test_monotone_crossing_gives_one_cycle(self):
        load = np.linspace(10, 40, 24)
        p = profile_from_hours(load)
        cycles = segment_cycles(p, 15e6, 35e6)
        assert len(cycles) == 1

    def test_flat_load_in_dead_band_rejected(self):
        p = profile_from_hours([25.0] * 24)
        with pytest.raises(EmptyPlanError):
            segment_cycles(p, 15e6, 35e6)

    def test_dead_band_samples_attach_to_preceding_interval(self):
        load = [10, 25, 25, 40]
        p = profile_from_hours(load)
        intervals = segment_intervals(p, 15e6, 35e6)
        assert [iv.kind for iv in intervals] == ["charge", "discharge"]
        assert intervals[0].stop == 3

    def test_inverted_references_rejected(self):
        with pytest.raises(DomainError):
            segment_intervals(profile_from_hours([10, 40]), 35e6, 15e6)


def fixed_reference_plan(profile, p_chr_ref_w, p_dis_ref_w, p_r_w, e_r_wh):
    """The plan that keeps the references on the profile's intervals."""
    return ShavingPlan(
        cycles=segment_cycles(profile, p_chr_ref_w, p_dis_ref_w),
        intervals=segment_intervals(profile, p_chr_ref_w, p_dis_ref_w),
        rated_power_w=p_r_w, rated_energy_wh=e_r_wh,
        p_chr_ref0_w=p_chr_ref_w, p_dis_ref0_w=p_dis_ref_w)


class TestUngatedReplay:
    """replay_plan(gated=False) integrates the demand law without a
    capacity gate: its trace is the running sum of the demand, past the
    plan's 10 MWh here."""

    def test_rectangle_integral(self):
        # constant 5 MW headroom for 4 hours, one charge interval
        p = profile_from_hours([10.0] * 4)
        plan = fixed_reference_plan(p, 15e6, 35e6, 5e6, 10e6)
        assert len(plan.intervals) == 1
        res = replay_plan(plan, p, gated=False)
        assert res["demand_w"].tolist() == [5e6] * 4
        assert res["energy_wh"].tolist() == [0.0, 5e6, 10e6, 15e6, 20e6]

    def test_peak_and_return(self):
        p = profile_from_hours([10.0] * 4 + [40.0] * 4)
        plan = fixed_reference_plan(p, 15e6, 35e6, 5e6, 10e6)
        trace = replay_plan(plan, p, gated=False)["energy_wh"]
        assert trace.tolist() == [0.0, 5e6, 10e6, 15e6, 20e6,
                                  15e6, 10e6, 5e6, 0.0]


class TestImprovedCorrection:
    def test_overcharge_reduces_reference_to_capacity(self):
        day = double_bump_day()
        e_r = 10e6
        r_chr, r_dis = depth_references(day, 5e6)
        plan = correct_references_improved(day, 5e6, e_r, r_chr, r_dis)
        charge_ivs = [iv for iv in plan.intervals if iv.kind == "charge"]
        assert charge_ivs[0].ref_w < r_chr
        replay = replay_plan(plan, day, gated=False)
        assert replay["energy_wh"].max() <= e_r * 1.001
        assert replay["energy_wh"].min() >= -e_r * 0.001

    def test_satisfied_cycle_is_fixed_point(self):
        day = double_bump_day()
        e_r = 80e6  # far more capacity than the day can move
        r_chr, r_dis = depth_references(day, 5e6)
        plan = correct_references_improved(day, 5e6, e_r, r_chr, r_dis)
        dis_ivs = [iv for iv in plan.intervals if iv.kind == "discharge"]
        assert all(iv.ref_w == r_dis for iv in dis_ivs)

    def test_infeasible_cycle_flagged_not_raised(self):
        # discharge-first day with an empty store: demand cannot be met
        load = [40.0] * 6 + [25.0] * 18
        p = profile_from_hours(load)
        plan = correct_references_improved(p, 5e6, 10e6, 20e6, 35e6)
        assert plan.cycles[0].feasible is False

    def test_asymmetric_day_charges_more_than_original(self):
        day = double_bump_day()
        e_r = 10e6
        r_chr, r_dis = depth_references(day, 5e6)
        improved = correct_references_improved(day, 5e6, e_r, r_chr, r_dis)
        original = correct_references_original(day, 5e6, e_r, r_chr, r_dis)
        e_chr_imp = replay_energy(improved, day, "charge")
        e_chr_org = replay_energy(original, day, "charge")
        assert e_chr_imp > e_chr_org


def replay_energy(plan, day, direction):
    res = replay_plan(plan, day, gated=True)
    d = res["demand_w"]
    step_h = day.dt_s / 3600.0
    if direction == "charge":
        return float(d[d > 0].sum()) * step_h
    return float(-d[d < 0].sum()) * step_h


class TestOriginalCorrection:
    def test_daily_charge_discharge_symmetric(self):
        day = double_bump_day()
        e_r = 10e6
        r_chr, r_dis = depth_references(day, 5e6)
        plan = correct_references_original(day, 5e6, e_r, r_chr, r_dis)
        e_chr = replay_energy(plan, day, "charge")
        e_dis = replay_energy(plan, day, "discharge")
        assert e_chr == pytest.approx(e_dis, abs=0.003 * e_r)

    def test_references_bounded_by_daily_mid_level(self):
        day = double_bump_day()
        r_chr, r_dis = depth_references(day, 5e6)
        plan = correct_references_original(day, 5e6, 1e12, r_chr, r_dis)
        lo, hi = day.values_w.min(), day.values_w.max()
        mid = 0.5 * (lo + hi)
        for iv in plan.intervals:
            if iv.kind == "charge":
                assert iv.ref_w <= mid
            else:
                assert iv.ref_w >= mid


@pytest.mark.parametrize("correct", [correct_references_improved,
                                     correct_references_original])
@pytest.mark.parametrize("e0", [-1e-9, 10e6 * (1 + 1e-15), math.nan])
def test_plan_start_outside_the_store_rejected(correct, e0):
    p = profile_from_hours([10.0] * 2 + [40.0] * 2)
    with pytest.raises(DomainError) as e:
        correct(p, 5e6, 10e6, 15e6, 35e6, e0)
    assert e.value.field == "initial_energy_wh"


class TestDepthReferences:
    def test_basic(self):
        p = profile_from_hours([10, 20, 40])
        r_chr, r_dis = depth_references(p, 5e6)
        assert r_chr == pytest.approx(15e6)
        assert r_dis == pytest.approx(35e6)

    def test_shallow_range_rejected(self):
        p = profile_from_hours([10, 12])
        with pytest.raises(DomainError):
            depth_references(p, 5e6)


class TestMetrics:
    def test_capture_rate_one_when_valley_fully_captured(self):
        day = double_bump_day()
        e_r = 80e6
        r_chr, r_dis = depth_references(day, 5e6)
        plan = correct_references_improved(day, 5e6, e_r, r_chr, r_dis)
        res = replay_plan(plan, day, gated=True)
        m = compute_metrics(day, plan, res["demand_w"], e_r)
        assert m.cr >= 1.0 - 1e-6

    def test_equivalent_cycles_full_roundtrip(self):
        # one full charge plus one full discharge of the rated energy
        p = profile_from_hours([10.0] * 2 + [40.0] * 2)
        plan = correct_references_improved(p, 5e6, 10e6, 15e6, 35e6)
        res = replay_plan(plan, p, gated=True)
        m = compute_metrics(p, plan, res["demand_w"], 10e6)
        assert m.e_chr_wh == pytest.approx(10e6, rel=1e-3)
        assert m.equivalent_cycles == pytest.approx(1.0, rel=1e-3)

    def test_gated_replay_stays_inside_capacity(self):
        day = double_bump_day()
        plan = correct_references_improved(day, 5e6, 10e6, *depth_references(day, 5e6))
        res = replay_plan(plan, day, gated=True)
        assert res["energy_wh"].max() <= 10e6 + 1e-6
        assert res["energy_wh"].min() >= -1e-6

    def test_utilization_nan_without_active_steps(self):
        p = profile_from_hours([10.0, 40.0])
        plan = correct_references_improved(p, 5e6, 10e6, 15e6, 35e6)
        m = compute_metrics(p, p and plan, np.zeros(2), 10e6,
                            demanded_w=np.zeros(2))
        assert math.isnan(m.power_utilization)


def _gated_loop(plan, profile):
    """replay_plan(gated=True) as a sample loop: the oracle of the
    per-interval clamp."""
    demand = replay_plan(plan, profile, gated=False)["demand_w"]
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
    """One synthetic day (every template field drawn), a power depth that
    leaves the references inside the load range, a method, a store from a
    hundredth of one full-power sample (pinned on every sample) to a
    thousand of them, and an initial energy in it (bounds included)."""
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
    # a flat day has depth 0, which depth_references rejects
    assume(spread > 0)
    depth = draw(st.floats(0.02, 0.45)) * spread
    e_r = 10 ** draw(st.floats(-2.0, 3.0)) * depth * spec.dt_s / 3600.0
    e0 = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))) * e_r
    correct = draw(st.sampled_from([correct_references_improved,
                                    correct_references_original]))
    plan = correct(day, depth, e_r, *depth_references(day, depth), e0)
    return day, depth, plan


class TestPlanProperties:
    """Plan-layer invariants over drawn days, plants and methods."""

    @settings(max_examples=150)
    @given(planned_days())
    def test_gated_replay(self, drawn):
        day, _, plan = drawn
        gated = replay_plan(plan, day, gated=True)
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
        free = replay_plan(plan, day, gated=False)["demand_w"]
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
        gated = replay_plan(plan, day, gated=True)
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
        gated = replay_plan(plan, day, gated=True)
        demand, energy = _gated_loop(plan, day)
        assert gated["demand_w"].tobytes() == demand.tobytes()
        assert gated["energy_wh"].tobytes() == energy.tobytes()
        assert demand.tolist() == [0.5, 2.0 - np.nextafter(2.0, 0)]
        assert energy.tolist() == [7.5, 8.0, 8.0]

    def test_pinned_store(self):
        # 200 kWh fills in three 5 MW samples at 60 s: the store sits at
        # each bound for long runs of samples pushing past it
        day = double_bump_day()
        plan = correct_references_improved(day, 5e6, 200e3,
                                           *depth_references(day, 5e6))
        gated = replay_plan(plan, day, gated=True)
        demand, energy = _gated_loop(plan, day)
        assert gated["demand_w"].tobytes() == demand.tobytes()
        assert gated["energy_wh"].tobytes() == energy.tobytes()
        assert np.sum(energy == 200e3) > 100 and np.sum(energy == 0.0) > 100

    @settings(max_examples=150)
    @given(planned_days())
    def test_references_lie_within_the_load_range(self, drawn):
        # corrections bisect between bounds inside [min, max] of the load
        day, _, plan = drawn
        lo, hi = day.values_w.min(), day.values_w.max()
        refs = [iv.ref_w for iv in plan.intervals] + [
            r for c in plan.cycles for r in (c.p_chr_ref_w, c.p_dis_ref_w)]
        assert all(lo <= r <= hi for r in refs)

    @settings(max_examples=150)
    @given(planned_days())
    def test_intervals_partition_the_day(self, drawn):
        day, depth, _ = drawn
        intervals = segment_intervals(day, *depth_references(day, depth))
        assert intervals[0].start == 0
        assert intervals[-1].stop == day.n_samples
        for a, b in zip(intervals, intervals[1:]):
            assert a.start < a.stop == b.start
            assert a.kind != b.kind
        assert {iv.kind for iv in intervals} <= {"charge", "discharge"}
