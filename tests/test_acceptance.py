"""End-to-end acceptance checks.

Each test prints a single `criterion N ...: PASS` line on success so a
full run doubles as an acceptance report.
"""

import filecmp
import json
import os
import time

import numpy as np
import pytest

from bessim.allocator import (
    PsoParams,
    balanced_allocation,
    fitness,
    grid_search_allocation,
    pso_allocate,
    repair,
)
from bessim.analysis import component_ledger_report, depth_sweep
from bessim.cli import main
from bessim.losses import (
    CellParams,
    OcvCoeffs,
    PcsEfficiencyCoeffs,
    RcState,
    TransformerParams,
    open_circuit_voltage,
    pcs_efficiency,
    steady_state_loss,
    step_polarization,
    total_battery_loss,
    transient_loss,
)
from bessim.plant import Plant, uniform_plant_config
from bessim.profiles import SynthLoadSpec, synth_load
from bessim.scheduler import (
    compute_metrics,
    correct_references_improved,
    demand_power,
    depth_references,
    replay_plan,
)
from bessim.simulate import plan_horizon, run_simulation


def test_criterion_01_loss_split_identity():
    """P_total == P_ss + P_ts at every step of 1e4 random current traces."""
    p = CellParams()
    rng = np.random.default_rng(0)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(10_000):
        state = RcState(i_pol=float(rng.uniform(-30, 30)))
        currents = rng.uniform(-50, 50, size=10)
        for cur in currents:
            cur = float(cur)
            total = total_battery_loss(state, cur, p)
            split = steady_state_loss(cur, p) + transient_loss(state, cur, p)
            scale = max(abs(total), abs(split), 1e-15)
            worst = max(worst, abs(total - split) / scale)
            state = step_polarization(state, cur, 60.0, p)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    print(f"criterion 1 (loss split identity): PASS "
          f"worst rel dev {worst:.2e}, {elapsed:.2f} s")


def _polarization_quadrature(currents, dt, p, n_sub=400):
    """Convolution of the RC branch response with a piecewise-constant
    current, by per-segment trapezoid quadrature on a fine subgrid."""
    tau = p.time_constant_s
    out = np.empty(currents.size)
    for k in range(1, currents.size + 1):
        t_k = k * dt
        acc = 0.0
        for j in range(k):
            s = np.linspace(j * dt, (j + 1) * dt, n_sub + 1)
            acc += currents[j] * np.trapezoid(np.exp(-(t_k - s) / tau) / tau, s)
        out[k - 1] = acc
    return out


def test_criterion_02_convolution_oracle():
    """Exponential stepping matches quadrature of the RC convolution."""
    p = CellParams()
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 20))
        currents = rng.uniform(-50, 50, size=n)
        imax = float(np.max(np.abs(currents)))
        state = RcState()
        sim = np.empty(n)
        for i, cur in enumerate(currents):
            state = step_polarization(state, float(cur), 60.0, p)
            sim[i] = state.i_pol
        oracle = _polarization_quadrature(currents, 60.0, p)
        rel = np.abs(sim - oracle) / np.maximum(np.abs(oracle), 1e-6 * imax)
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6
    assert elapsed < 30.0
    print(f"criterion 2 (convolution oracle): PASS "
          f"worst rel dev {worst:.2e}, {elapsed:.2f} s")


def test_criterion_03_polynomial_anchors():
    pcs = PcsEfficiencyCoeffs()
    ocv = OcvCoeffs()
    assert pcs_efficiency(0.0, pcs) == pytest.approx(0.7868, abs=1e-12)
    assert pcs_efficiency(1.0, pcs) == pytest.approx(0.8326, abs=1e-4)
    assert open_circuit_voltage(0.0, ocv) == pytest.approx(2.484, abs=1e-12)
    assert open_circuit_voltage(1.0, ocv) == pytest.approx(3.443, abs=1e-3)
    print("criterion 3 (polynomial anchors): PASS")


def test_criterion_04_energy_balance_year_run():
    """Per-step ledger closure on a full-year, 100-cluster, 60 s run."""
    spec = SynthLoadSpec(days=365, dt_s=60.0)
    profile = synth_load(spec, 2024)
    plant = Plant(uniform_plant_config(100, dt_s=60.0))
    t0 = time.monotonic()
    result = run_simulation(plant, profile, power_depth_w=5e6,
                            rated_energy_wh=10e6)
    elapsed = time.monotonic() - t0
    losses = (result.transformer_wh + result.acdc_wh + result.dcdc_wh
              + result.ohmic_wh + result.polarization_wh)
    residual = result.grid_wh - result.stored_wh - losses
    scale = np.maximum.reduce([np.abs(result.grid_wh),
                               np.abs(result.stored_wh), np.abs(losses)])
    rel = np.abs(residual) / np.maximum(scale, 1e-12)
    worst = float(rel.max())
    assert worst <= 1e-9
    assert elapsed < 60.0
    print(f"criterion 4 (energy balance): PASS worst rel residual "
          f"{worst:.2e} over {result.n_steps} steps, {elapsed:.1f} s")


def test_criterion_05_scheduler_contract():
    p_d, e_r = 5e6, 10e6
    spec = SynthLoadSpec(
        days=1, dt_s=300.0, base_w=30e6, valley_depth_w=6e6, valley_hour=3.5,
        valley_sigma_h=1.5, morning_peak_w=0.0, evening_peak_w=7e6,
        evening_hour=19.5, evening_sigma_h=0.66, noise_rel=0.003,
        day_jitter=0.05)
    # planned state of charge stays inside [0, E_r] for feasible cycles
    for seed in range(5):
        day = synth_load(spec, seed)
        r_chr, r_dis = depth_references(day, p_d)
        plan = correct_references_improved(day, p_d, e_r, r_chr, r_dis)
        assert all(c.feasible for c in plan.cycles)
        trace = replay_plan(plan, day, gated=False)["energy_wh"]
        assert trace.max() <= e_r * 1.001
        assert trace.min() >= -e_r * 0.001

    rng = np.random.default_rng(2)
    # the demand law never exceeds the rated power
    for _ in range(1000):
        chr_ref = float(rng.uniform(10e6, 20e6))
        dis_ref = chr_ref + float(rng.uniform(5e6, 15e6))
        p_r = float(rng.uniform(1e6, 5e6))
        load = float(rng.uniform(0, 40e6))
        d = demand_power(load, chr_ref, dis_ref, 0.5, p_r)
        assert abs(d) <= p_r + 1e-9

    # branch continuity at the four load boundaries of the demand law
    eps = 1e-3
    worst_jump = 0.0
    for _ in range(1000):
        chr_ref = float(rng.uniform(10e6, 20e6))
        dis_ref = chr_ref + float(rng.uniform(5e6, 15e6))
        p_r = float(rng.uniform(1e6, 5e6))
        for b in (chr_ref - p_r, chr_ref, dis_ref, dis_ref + p_r):
            lo = demand_power(b - eps, chr_ref, dis_ref, 0.5, p_r)
            hi = demand_power(b + eps, chr_ref, dis_ref, 0.5, p_r)
            worst_jump = max(worst_jump, abs(hi - lo))
    assert worst_jump <= 2 * eps + 1e-9
    print(f"criterion 5 (scheduler contract): PASS "
          f"worst boundary jump {worst_jump:.2e} W at eps={eps} W")


def _year_metrics(profile, method, p_d, e_r):
    days = profile.split_days()
    plans = plan_horizon(days, p_d, e_r, method)
    crs, curs, cycles = [], [], 0.0
    for plan, day in zip(plans, days):
        gated = replay_plan(plan, day, gated=True)
        m = compute_metrics(day, plan, gated["demand_w"], e_r)
        crs.append(m.cr)
        curs.append(m.cur)
        cycles += m.equivalent_cycles
    return float(np.mean(crs)), float(np.mean(curs)), cycles


def test_criterion_06_method_comparison_years():
    """Improved correction beats the original on seeded synthetic years."""
    p_d, e_r = 5e6, 10e6
    spec = SynthLoadSpec(
        days=365, dt_s=300.0, base_w=30e6, valley_depth_w=6e6,
        valley_hour=3.5, valley_sigma_h=1.5, morning_peak_w=0.0,
        evening_peak_w=7e6, evening_hour=19.5, evening_sigma_h=0.66,
        noise_rel=0.003, day_jitter=0.05)
    n_years = 20
    wins = 0
    samples = []
    for seed in range(n_years):
        profile = synth_load(spec, seed)
        cr_i, cur_i, cyc_i = _year_metrics(profile, "improved", p_d, e_r)
        cr_o, cur_o, cyc_o = _year_metrics(profile, "original", p_d, e_r)
        ok = (abs(cr_i - 1.0) <= abs(cr_o - 1.0)
              and cur_i > cur_o
              and cyc_i <= cyc_o)
        wins += ok
        samples.append((cur_i, cur_o, cyc_i, cyc_o))
    assert wins >= int(np.ceil(0.95 * n_years))
    cur_i, cur_o, cyc_i, cyc_o = np.mean(samples, axis=0)
    print(f"criterion 6 (method comparison): PASS {wins}/{n_years} years; "
          f"mean CUR {cur_o:.3f}->{cur_i:.3f}, "
          f"cycles {cyc_o:.1f}->{cyc_i:.1f}")


def test_criterion_07_pso_feasibility_and_dominance():
    rng = np.random.default_rng(3)
    params = PsoParams(particles=12, max_iterations=15, rng_seed=0)
    rated = 50e3
    t0 = time.monotonic()
    for trial in range(1000):
        m = int(rng.integers(2, 9))
        plant = Plant(uniform_plant_config(m))
        plant.soc = rng.uniform(0.1, 0.9, size=m)
        plant.ipol = rng.uniform(-50.0, 50.0, size=m)
        p_sys = float(rng.uniform(0.1, 0.9) * m * rated
                      * (1 if rng.uniform() < 0.5 else -1))
        best, trace = pso_allocate(p_sys, plant, params)
        k = best
        assert abs(k.sum() - 1.0) <= 1e-9
        assert np.all(k >= -1e-12) and np.all(k <= 1.0 + 1e-12)
        p_net = plant.net_cluster_power(p_sys)
        assert np.all(np.abs(k * p_sys) <= rated + 1e-6)
        assert np.all(np.abs(k * p_net) <= rated + 1e-6)
        blocked = plant.blocked_mask(p_sys)
        max_share = plant.params.rated_w / max(abs(p_net), abs(p_sys))
        f_bal = fitness(repair(balanced_allocation(blocked), blocked,
                               max_share), p_sys, plant)
        assert trace[-1] >= f_bal - 1e-12

    # small plants: swarm optimum within 1e-3 relative of grid search
    worst_gap = 0.0
    for m in (2, 3):
        for trial in range(5):
            plant = Plant(uniform_plant_config(m))
            plant.soc = rng.uniform(0.2, 0.8, size=m)
            plant.ipol = rng.uniform(-40.0, 40.0, size=m)
            p_sys = float(rng.uniform(0.3, 0.7) * m * rated
                          * (1 if trial % 2 else -1))
            _, f_grid = grid_search_allocation(p_sys, plant, resolution=1e-3)
            _, trace = pso_allocate(p_sys, plant,
                                    PsoParams(rng_seed=trial))
            gap = (f_grid - trace[-1]) / max(abs(f_grid), 1e-9)
            worst_gap = max(worst_gap, gap)
    elapsed = time.monotonic() - t0
    assert worst_gap <= 1e-3
    assert elapsed < 300.0
    print(f"criterion 7 (swarm feasibility/dominance): PASS 1000 states; "
          f"worst grid-search gap {worst_gap:.2e}, {elapsed:.1f} s")


def test_criterion_08_optimized_allocation_reduces_losses():
    """Swarm allocation never loses to balanced on representative days and
    strictly wins on days with heterogeneous cluster state of charge."""
    spec = SynthLoadSpec(
        days=1, dt_s=300.0, base_w=1.2e6, valley_depth_w=0.24e6,
        valley_hour=3.5, valley_sigma_h=1.5, morning_peak_w=0.0,
        evening_peak_w=0.28e6, evening_hour=19.5, evening_sigma_h=0.66,
        noise_rel=0.003, day_jitter=0.05)
    tf = TransformerParams(no_load_loss_w=200.0, rated_load_loss_w=1400.0,
                           rated_power_w=252e3)
    m, p_d, e_r = 8, 200e3, 1.6e6
    n_days = 12
    strict = 0
    deltas = []
    for seed in range(n_days):
        profile = synth_load(spec, seed)
        soc0 = np.random.default_rng(100 + seed).uniform(0.30, 0.55, size=m)
        losses = {}
        for mode in ("balanced", "pso"):
            plant = Plant(uniform_plant_config(m, transformer=tf, dt_s=300.0))
            plant.soc = soc0.copy()
            res = run_simulation(
                plant, profile, power_depth_w=p_d, rated_energy_wh=e_r,
                alloc_mode=mode,
                pso_params=PsoParams(particles=20, max_iterations=30,
                                     rng_seed=seed))
            losses[mode] = res.total_loss_wh
            report = component_ledger_report(res)
            share_sum = sum(report["components"][n]["share"]
                            for n in ("transformer", "acdc", "dcdc",
                                      "battery_ohmic",
                                      "battery_polarization"))
            assert share_sum == pytest.approx(1.0, abs=1e-9)
        delta = losses["pso"] - losses["balanced"]
        assert delta <= 1e-9 * losses["balanced"]
        strict += delta < 0
        deltas.append((delta, delta / losses["balanced"]))
    assert strict >= 1
    mean_kwh = np.mean([d for d, _ in deltas]) / 1e3
    mean_pct = 100.0 * np.mean([r for _, r in deltas])
    print(f"criterion 8 (allocation benefit): PASS {strict}/{n_days} strict "
          f"wins, mean delta {mean_kwh:+.3f} kWh ({mean_pct:+.2f}%) "
          f"[external reference: -174.21 kWh, -0.4%]")


def test_criterion_09_transient_share_decreases_with_depth():
    spec = SynthLoadSpec(
        days=2, dt_s=60.0, base_w=30e6, valley_depth_w=9e6, valley_hour=3.5,
        valley_sigma_h=2.5, morning_peak_w=0.0, evening_peak_w=8e6,
        evening_hour=19.5, evening_sigma_h=1.2, noise_rel=0.02,
        noise_ar1=0.6, day_jitter=0.05)
    profile = synth_load(spec, 11)
    depths = [1e6, 2e6, 3e6, 4e6, 5e6]
    reports = depth_sweep(profile, depths)
    fracs = [r.ts_reduction_fraction for r in reports]
    assert all(a > b for a, b in zip(fracs, fracs[1:]))
    assert all(r.e_ts_wh <= 0.0 for r in reports)
    print("criterion 9 (transient share trend): PASS fractions "
          + " > ".join(f"{f:.3f}" for f in fracs))


def test_criterion_10_byte_identical_reruns(tmp_path):
    doc = {
        "plant": {"n_clusters": 4, "dt_s": 300},
        "schedule": {"power_depth_w": 200e3, "rated_energy_wh": 800e3},
        "load": {"seed": 5, "synth": {
            "base_w": 1.2e6, "valley_depth_w": 0.3e6, "valley_sigma_h": 1.5,
            "morning_peak_w": 0.0, "evening_peak_w": 0.3e6,
            "evening_sigma_h": 0.8, "dt_s": 300, "days": 1}},
        "allocator": {"pso": {"particles": 8, "max_iterations": 10}},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    checked = 0
    for command in ("simulate", "gen-load", "sweep"):
        dirs = []
        for run in ("a", "b"):
            outdir = tmp_path / f"{command}-{run}"
            argv = [command, "--config", str(cfg), "--output", str(outdir)]
            if command == "sweep":
                argv += ["--depths", "100000,200000"]
            assert main(argv) == 0
            dirs.append(outdir)
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        for name in names:
            if name == "manifest.json":
                continue  # carries a wall-clock creation timestamp
            assert filecmp.cmp(dirs[0] / name, dirs[1] / name,
                               shallow=False), f"{command}/{name} differs"
            checked += 1
    print(f"criterion 10 (determinism): PASS {checked} data files "
          f"byte-identical across reruns")
