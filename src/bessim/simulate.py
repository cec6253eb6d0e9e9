"""Closed-loop simulation: day-ahead plans driving the plant model.

Each day of the horizon is planned independently (perfect foresight on
that day's load), then executed step by step against the plant with the
chosen allocation mode. Per-step energies are recorded for the analysis
module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .allocator import PsoParams, pso_allocate, repair
from .errors import DomainError
from .losses import TransformerParams, transformer_loss
from .plant import E_AC, SS, TS, WH_PER_J, Plant
from .scheduler import (
    LoadProfile,
    ShavingPlan,
    correct_references_improved,
    correct_references_original,
    depth_references,
)


@dataclass
class SimulationResult:
    """Per-step traces of one simulation run. All energies in Wh."""

    profile: LoadProfile
    dt_s: float
    plans: list[ShavingPlan]
    demand_w: np.ndarray          # system demand from the power law (signed)
    cluster_target_w: np.ndarray  # demand net of transformer loss
    delivered_w: np.ndarray       # actual cluster AC power (signed)
    grid_wh: np.ndarray
    stored_wh: np.ndarray
    transformer_wh: np.ndarray
    acdc_wh: np.ndarray
    dcdc_wh: np.ndarray
    ohmic_wh: np.ndarray
    polarization_wh: np.ndarray
    ss_wh: np.ndarray             # steady-state battery loss energy per step
    ts_wh: np.ndarray             # transient battery loss energy per step
    cluster0_dc_w: np.ndarray     # battery port power of cluster 0
    truncated: np.ndarray
    alloc_matrix: np.ndarray | None
    plant: Plant

    @property
    def n_steps(self) -> int:
        return self.demand_w.size

    @property
    def total_loss_wh(self) -> float:
        return float(self.transformer_wh.sum() + self.acdc_wh.sum()
                     + self.dcdc_wh.sum() + self.ohmic_wh.sum()
                     + self.polarization_wh.sum())


def plan_horizon(profile: LoadProfile, power_depth_w: float,
                 rated_energy_wh: float, method: str = "improved",
                 initial_energy_wh: float = 0.0) -> list[ShavingPlan]:
    """Independent day-ahead plan for each day of the horizon."""
    if method not in ("improved", "original"):
        raise DomainError(f"unknown scheduling method {method!r}")
    plans = []
    for day in profile.split_days():
        r_chr, r_dis = depth_references(day, power_depth_w)
        if method == "improved":
            plan = correct_references_improved(
                day, power_depth_w, rated_energy_wh, r_chr, r_dis,
                initial_energy_wh)
        else:
            plan = correct_references_original(
                day, power_depth_w, rated_energy_wh, r_chr, r_dis,
                initial_energy_wh)
        plans.append(plan)
    return plans


def _sample_refs(plans: list[ShavingPlan], n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-day interval schedules to per-sample (kind, ref) arrays."""
    kinds = np.zeros(n_total, dtype=np.int8)  # +1 charge, -1 discharge
    refs = np.zeros(n_total)
    offset = 0
    for plan in plans:
        for iv in plan.intervals:
            sl = slice(offset + iv.start, offset + iv.stop)
            kinds[sl] = 1 if iv.kind == "charge" else -1
            refs[sl] = iv.ref_w
        offset += plan.n_samples
    return kinds, refs


def run_simulation(plant: Plant, profile: LoadProfile, power_depth_w: float,
                   rated_energy_wh: float, method: str = "improved",
                   alloc_mode: str = "balanced",
                   pso_params: PsoParams | None = None,
                   realloc_cadence_s: float = 900.0,
                   record_alloc: bool = False) -> SimulationResult:
    """Plan the horizon and execute it against the plant.

    alloc_mode is 'balanced' or 'pso'; with 'pso' the allocation is
    re-optimized every realloc_cadence_s of simulated time and repaired
    against the current blocked mask in between.
    """
    if alloc_mode not in ("balanced", "pso"):
        raise DomainError(f"unknown allocation mode {alloc_mode!r}")
    if alloc_mode == "pso" and pso_params is None:
        pso_params = PsoParams()
    dt = profile.dt_s
    if abs(dt - plant.cfg.dt_s) > 1e-9:
        raise DomainError("profile sampling must match the plant step")
    plans = plan_horizon(profile, power_depth_w, rated_energy_wh, method)
    kinds, refs = _sample_refs(plans, profile.n_samples)
    load = profile.values_w
    n = profile.n_samples
    m = plant.n_clusters
    step_h = dt / 3600.0
    soc_min, soc_max = plant.cfg.soc_min, plant.cfg.soc_max
    cadence_steps = max(int(round(realloc_cadence_s / dt)), 1)

    demand = np.zeros(n)
    delivered = np.zeros(n)
    grid = np.zeros(n)
    stored = np.zeros(n)
    tfmr = np.zeros(n)
    acdc = np.zeros(n)
    dcdc = np.zeros(n)
    ohmic = np.zeros(n)
    pol = np.zeros(n)
    ss = np.zeros(n)
    ts = np.zeros(n)
    clu0 = np.zeros(n)
    trunc = np.zeros(n, dtype=bool)
    alloc_rows = np.zeros((n, m)) if record_alloc else None

    k_current: np.ndarray | None = None

    if alloc_mode == "balanced" and plant.is_uniform():
        _run_uniform(plant, kinds, refs, load, power_depth_w, dt,
                     (demand, delivered, grid, stored, tfmr, acdc, dcdc,
                      ohmic, pol, ss, ts, clu0, trunc))
        if record_alloc:
            alloc_rows[:] = 1.0 / m
        return _assemble(profile, dt, plans, demand, tfmr, step_h, delivered,
                         grid, stored, acdc, dcdc, ohmic, pol, ss, ts, clu0,
                         trunc, alloc_rows, plant)

    for i in range(n):
        mean_soc = float(plant.soc.sum()) / m
        p = 0.0
        if kinds[i] == 1 and mean_soc < soc_max:
            p = min(max(refs[i] - load[i], 0.0), power_depth_w)
        elif kinds[i] == -1 and mean_soc > soc_min:
            p = -min(max(load[i] - refs[i], 0.0), power_depth_w)
        demand[i] = p

        blocked = plant.blocked_mask(p)
        if blocked.all():
            p = 0.0
            blocked = plant.blocked_mask(p)
        avail = float(plant.params.rated_w[~blocked].sum())
        p = _cap_to_plant(p, avail, plant.cfg.transformer)
        demand[i] = p
        p_net = plant.net_cluster_power(p)
        max_share = plant.params.rated_w / abs(p_net) if p_net != 0.0 else None
        if alloc_mode == "balanced" or p == 0.0:
            # equal shares over the free clusters, as balanced_allocation
            # gives them; repair renormalises and applies the caps
            free = ~blocked
            k = repair(free / np.count_nonzero(free), blocked, max_share)
        else:
            if k_current is None or i % cadence_steps == 0:
                params = replace(pso_params, rng_seed=pso_params.rng_seed + i)
                best, _ = pso_allocate(p, plant, params)
                k_current = best.k
            k = repair(k_current, blocked, max_share)

        ledger = plant.step(p, k, dt)
        totals, e_dc0, trunc[i] = plant.last_step_detail
        grid[i] = ledger.grid_wh
        stored[i] = ledger.stored_wh
        tfmr[i] = ledger.transformer_wh
        acdc[i] = ledger.acdc_wh
        dcdc[i] = ledger.dcdc_wh
        ohmic[i] = ledger.battery_ohmic_wh
        pol[i] = ledger.battery_polarization_wh
        ss[i] = totals[SS]
        ts[i] = totals[TS]
        delivered[i] = totals[E_AC] / step_h
        clu0[i] = e_dc0 / step_h
        if record_alloc:
            alloc_rows[i] = k

    return _assemble(profile, dt, plans, demand, tfmr, step_h, delivered,
                     grid, stored, acdc, dcdc, ohmic, pol, ss, ts, clu0,
                     trunc, alloc_rows, plant)


def _cap_to_plant(p: float, avail_w: float, tf: TransformerParams) -> float:
    """System power p capped to what the available clusters can exchange;
    when discharging they must also cover the transformer loss."""
    if p > 0.0:
        return min(p, avail_w)
    if p < 0.0:
        tf_est = transformer_loss(min(-p / tf.rated_power_w, 1.2), tf)
        return max(p, -max(avail_w - tf_est, 0.0))
    return 0.0


def _run_uniform(plant: Plant, kinds, refs, load, power_depth_w: float,
                 dt: float, traces: tuple) -> None:
    """Balanced run of a uniform plant (see Plant.is_uniform).

    A balanced split over identical clusters keeps every cluster in the
    same state, so one scalar kernel call per step stands for all of them
    and its energies scale by the cluster count; the outputs equal those of
    the general loop with the balanced allocation. State and the running
    ledger stay in Python floats, inputs are read and the per-step results
    written through memoryviews of the arrays; the plant gets its state,
    ledger and worst ledger residual back when the loop ends or raises.
    traces holds the (n,) result arrays in the order demand, delivered,
    grid, stored, transformer, AC/DC, DC/DC, ohmic, polarization, ss, ts,
    cluster-0 battery power and truncated.
    """
    kernel = plant.params.scalar_at_dt(dt)
    split = plant.transformer_split
    tf_params = plant.cfg.transformer
    m = float(plant.n_clusters)
    p_tot = float(np.sum(plant.params.rated_w))
    rated = plant.params.rated
    rated_tol = plant.params.rated_tol_w
    soc_hi = plant.cfg.soc_max - 1e-12
    soc_lo = plant.cfg.soc_min + 1e-12
    step_h = dt / 3600.0
    w = WH_PER_J
    (dv, delv, gv, stv, tfv, acv, dcv, ohv, polv, ssv, tsv, c0v,
     trv) = (memoryview(a) for a in traces)

    soc, ipol, t = float(plant.soc[0]), float(plant.ipol[0]), plant.t_elapsed
    cum = plant.cumulative
    c_tf, c_acdc, c_dcdc = cum.transformer_wh, cum.acdc_wh, cum.dcdc_wh
    c_ohm, c_pol = cum.battery_ohmic_wh, cum.battery_polarization_wh
    c_stored, c_grid = cum.stored_wh, cum.grid_wh
    worst = plant.max_balance_residual_rel
    try:
        for i, (kind, ref, lw) in enumerate(zip(
                memoryview(kinds), memoryview(refs), memoryview(load))):
            # demand law, then the plant cap
            p = 0.0
            if kind == 1:
                if soc < soc_hi:
                    p = min(max(ref - lw, 0.0), power_depth_w)
            elif kind == -1 and soc > soc_lo:
                p = -min(max(lw - ref, 0.0), power_depth_w)
            p = _cap_to_plant(p, p_tot, tf_params)
            dv[i] = p

            p_net, tf_w = split(p)
            p_clu = p_net / m
            if abs(p_clu) > rated_tol:
                raise DomainError(
                    f"allocation infeasible: cluster 0 commanded {p_clu:.1f} W "
                    f"above its {rated:.0f} W rating")
            (soc, ipol, _, truncated, e_ac, e_dc, e_stored, e_acdc, e_dcdc,
             e_ohm, e_pol, e_ss, e_ts) = kernel(soc, ipol, p_clu)
            t += dt

            tf_wh = tf_w * dt * w
            e_ac = m * e_ac
            grid_wh = e_ac + tf_wh
            stored_wh = m * e_stored
            acdc_wh, dcdc_wh = m * e_acdc, m * e_dcdc
            ohm_wh, pol_wh = m * e_ohm, m * e_pol
            c_tf += tf_wh
            c_acdc += acdc_wh
            c_dcdc += dcdc_wh
            c_ohm += ohm_wh
            c_pol += pol_wh
            c_stored += stored_wh
            c_grid += grid_wh
            loss = tf_wh + acdc_wh + dcdc_wh + ohm_wh + pol_wh
            scale = max(abs(grid_wh), abs(stored_wh), loss, 1e-30)
            rel = abs(grid_wh - stored_wh - loss) / scale
            if rel > worst:
                worst = rel

            gv[i] = grid_wh
            stv[i] = stored_wh
            tfv[i] = tf_wh
            acv[i] = acdc_wh
            dcv[i] = dcdc_wh
            ohv[i] = ohm_wh
            polv[i] = pol_wh
            ssv[i] = m * e_ss
            tsv[i] = m * e_ts
            delv[i] = e_ac / step_h
            c0v[i] = e_dc / step_h
            trv[i] = truncated
    finally:
        plant.soc.fill(soc)
        plant.ipol.fill(ipol)
        plant.t_elapsed = t
        (cum.transformer_wh, cum.acdc_wh, cum.dcdc_wh, cum.battery_ohmic_wh,
         cum.battery_polarization_wh, cum.stored_wh, cum.grid_wh) = (
            c_tf, c_acdc, c_dcdc, c_ohm, c_pol, c_stored, c_grid)
        plant.max_balance_residual_rel = worst


def _assemble(profile, dt, plans, demand, tfmr, step_h, delivered, grid,
              stored, acdc, dcdc, ohmic, pol, ss, ts, clu0, trunc,
              alloc_rows, plant) -> SimulationResult:
    # cluster AC target net of transformer loss, for utilization reporting
    target = np.where(demand > 0, np.maximum(demand - tfmr / step_h, 0.0),
                      np.where(demand < 0, demand - tfmr / step_h, 0.0))
    return SimulationResult(
        profile=profile, dt_s=dt, plans=plans, demand_w=demand,
        cluster_target_w=target, delivered_w=delivered, grid_wh=grid,
        stored_wh=stored, transformer_wh=tfmr, acdc_wh=acdc, dcdc_wh=dcdc,
        ohmic_wh=ohmic, polarization_wh=pol, ss_wh=ss, ts_wh=ts,
        cluster0_dc_w=clu0, truncated=trunc, alloc_matrix=alloc_rows,
        plant=plant)
