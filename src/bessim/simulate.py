"""Closed-loop simulation: day-ahead plans driving the plant model.

Each day of the horizon is planned independently (perfect foresight on
that day's load), then executed step by step against the plant with the
chosen allocation mode. Per-step energies are recorded for the analysis
module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .allocator import PsoParams, balanced_allocation, pso_allocate, repair
from .config import AllocatorConfig, ScheduleConfig
from .errors import DomainError
from .plant import E_AC, E_DC, SOC_GATE_TOL, SS, TS, Plant, replay_steps
from .scheduler import (
    LoadProfile,
    ShavingPlan,
    correct_references_improved,
    correct_references_original,
    depth_references,
    replay_plan,
)

COMPONENT_ORDER = ("transformer", "acdc", "dcdc", "battery_ohmic",
                   "battery_polarization")


@dataclass
class SimulationResult:
    """Per-step traces of one simulation run. All energies in Wh."""

    dt_s: float
    plans: list[ShavingPlan]
    demand_w: np.ndarray          # system power commanded (signed)
    cluster_target_w: np.ndarray  # power the clusters exchange for it
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
    def loss_wh(self) -> dict[str, float]:
        """The run's loss per component (Wh) in COMPONENT_ORDER, each
        per-step series summed once by np.sum (pairwise): the one source
        of a run's loss totals."""
        series = (self.transformer_wh, self.acdc_wh, self.dcdc_wh,
                  self.ohmic_wh, self.polarization_wh)
        return dict(zip(COMPONENT_ORDER, (float(s.sum()) for s in series)))

    @property
    def total_loss_wh(self) -> float:
        return sum(self.loss_wh.values())


def plan_horizon(days: list[LoadProfile], power_depth_w: float,
                 rated_energy_wh: float, method: str = ScheduleConfig.method,
                 initial_energy_wh: float = 0.0) -> list[ShavingPlan]:
    """Independent day-ahead plan for each of the horizon's days (as
    LoadProfile.split_days gives them), in the same order."""
    if method not in ("improved", "original"):
        raise DomainError(f"unknown scheduling method {method!r}")
    plans = []
    for day in days:
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


@dataclass
class _Steps:
    """What the loops of run_simulation write per step. demand_w starts as
    the planned demand and each step overwrites its sample with the power
    it commands; target_w and tf_w hold that power's p_net and transformer
    loss (W); totals ((E_DC, n) ledger rows), e_dc0 and truncated what
    Plant.step returns; alloc the allocation rows when recorded. done
    counts the steps completed, the ones the run books."""

    demand_w: np.ndarray
    target_w: np.ndarray
    tf_w: np.ndarray
    totals: np.ndarray
    e_dc0: np.ndarray
    truncated: np.ndarray
    alloc: np.ndarray | None
    done: int = 0


def run_simulation(plant: Plant, profile: LoadProfile, power_depth_w: float,
                   rated_energy_wh: float, method: str = ScheduleConfig.method,
                   alloc_mode: str = AllocatorConfig.mode,
                   pso_params: PsoParams | None = None,
                   realloc_cadence_s: float = AllocatorConfig.cadence_s,
                   record_alloc: bool = False) -> SimulationResult:
    """Plan the horizon and execute it against the plant.

    Each step executes the plan's ungated demand (replay_plan with
    gated=False), dropped when every cluster is blocked by a SoC bound for
    its direction (Plant.blocked_mask) and capped to what the free clusters
    can exchange. alloc_mode is 'balanced' or 'pso'; with 'pso' the
    allocation is re-optimized every realloc_cadence_s of simulated time
    and repaired against the current blocked mask in between. A zero step
    records the unblocked balanced allocation. At 0 W SoC stays put, so a
    run of planned zeros or of gate-dropped samples (the plant stays
    blocked while the demand keeps its sign) is one Plant.idle call on the
    general loop; the fast path steps the state alone. Both give energies
    through replay_steps, bit for bit one Plant.step per sample. The steps
    completed are booked (Plant.book) when the run ends or raises.
    """
    if alloc_mode not in ("balanced", "pso"):
        raise DomainError(f"unknown allocation mode {alloc_mode!r}")
    if alloc_mode == "pso" and pso_params is None:
        pso_params = PsoParams()
    dt = plant.cfg.dt_s
    if abs(profile.dt_s - dt) > 1e-9:
        raise DomainError("profile sampling must match the plant step")
    days = profile.split_days()
    plans = plan_horizon(days, power_depth_w, rated_energy_wh, method)
    n, m = profile.n_samples, plant.n_clusters
    # the balanced split with nothing blocked: the allocation of zero steps
    blocked = np.zeros(m, dtype=bool)
    balanced = repair(balanced_allocation(blocked), blocked)
    steps = _Steps(
        demand_w=np.concatenate([
            replay_plan(plan, day, gated=False)["demand_w"]
            for plan, day in zip(plans, days)]),
        target_w=np.zeros(n), tf_w=np.zeros(n), totals=np.zeros((E_DC, n)),
        e_dc0=np.zeros(n), truncated=np.zeros(n, dtype=bool),
        alloc=np.tile(balanced, (n, 1)) if record_alloc else None)
    try:
        if alloc_mode == "balanced" and plant.is_uniform():
            _run_uniform(plant, steps, float(balanced[0]))
        else:
            _run_general(plant, steps, balanced, alloc_mode, pso_params,
                         max(int(round(realloc_cadence_s / dt)), 1))
    finally:
        ledger = plant.book(steps.totals[:, :steps.done],
                            steps.tf_w[:steps.done])

    step_h = dt / 3600.0
    return SimulationResult(
        dt_s=dt, plans=plans, demand_w=steps.demand_w,
        cluster_target_w=steps.target_w,
        delivered_w=steps.totals[E_AC] / step_h,
        grid_wh=ledger["grid_wh"], stored_wh=ledger["stored_wh"],
        transformer_wh=ledger["transformer_wh"], acdc_wh=ledger["acdc_wh"],
        dcdc_wh=ledger["dcdc_wh"], ohmic_wh=ledger["battery_ohmic_wh"],
        polarization_wh=ledger["battery_polarization_wh"],
        ss_wh=steps.totals[SS], ts_wh=steps.totals[TS],
        cluster0_dc_w=steps.e_dc0 / step_h, truncated=steps.truncated,
        alloc_matrix=steps.alloc, plant=plant)


def _cap_to_plant(p: float, avail_w: float,
                  split) -> tuple[float, float, float]:
    """System power p capped to what the available clusters can exchange,
    with its split (p, p_net, tf_w) by split (Plant.transformer_split).
    When discharging they must also cover the transformer loss, so p is
    split first and split again only when the cap binds."""
    if p < 0.0:
        p_net, tf_w = split(p)
        cap = -max(avail_w - tf_w, 0.0)
        if cap <= p:    # as max(p, cap), which keeps p on a tie
            return p, p_net, tf_w
        p = cap
    elif p > 0.0:
        p = min(p, avail_w)
    return (p, *split(p))


def _idle(plant: Plant, steps: _Steps, start: int, stop: int) -> None:
    """Steps start to stop as zero steps, in one Plant.idle call."""
    steps.demand_w[start:stop] = 0.0    # as the cap writes it, not -0.0
    (steps.totals[:, start:stop], steps.e_dc0[start:stop],
     steps.truncated[start:stop]) = plant.idle(stop - start)
    steps.tf_w[start:stop] = plant.transformer_split(0.0)[1]
    steps.done = stop


def _run_general(plant: Plant, steps: _Steps, balanced: np.ndarray,
                 alloc_mode: str, pso_params: PsoParams | None,
                 cadence_steps: int) -> None:
    """The per-cluster loop over runs of one demand sign (+-0 together):
    one Plant.step per sample, and one Plant.idle from a sample of 0 W or
    one where every cluster is blocked to the run's end. With 'pso' the
    allocation is re-optimized every cadence_steps steps."""
    demand = steps.demand_w
    sign = np.sign(demand)
    cuts = (np.flatnonzero(sign[1:] != sign[:-1]) + 1).tolist()
    k_current: np.ndarray | None = None
    for start, stop in zip([0] + cuts, cuts + [demand.size]):
        for i in range(start, stop):
            p = float(demand[i])
            blocked = plant.blocked_mask(p)
            if p == 0.0 or blocked.all():
                # SoC does not move at 0 W, so a blocked plant stays
                # blocked while the demand keeps its sign
                _idle(plant, steps, i, stop)
                break
            avail = float(plant.params.rated_w[~blocked].sum())
            p, p_net, tf_w = _cap_to_plant(p, avail, plant.transformer_split)
            max_share = (plant.params.rated_w / abs(p_net)
                         if p_net != 0.0 else None)
            if p == 0.0:
                k = balanced
            elif alloc_mode == "balanced":
                k = repair(balanced_allocation(blocked), blocked, max_share)
            else:
                if k_current is None or i % cadence_steps == 0:
                    params = replace(pso_params,
                                     rng_seed=pso_params.rng_seed + i)
                    k_current, _ = pso_allocate(p, plant, params)
                k = repair(k_current, blocked, max_share)
            (steps.totals[:, i], steps.e_dc0[i],
             steps.truncated[i]) = plant.step(p_net, k)
            demand[i], steps.target_w[i], steps.tf_w[i] = p, p_net, tf_w
            if steps.alloc is not None:
                steps.alloc[i] = k
            steps.done = i + 1


def _run_uniform(plant: Plant, steps: _Steps, share: float) -> None:
    """Balanced run of a uniform plant (see Plant.is_uniform).

    A balanced split over identical clusters keeps every cluster in the
    same state, so one call of plant.params.scalar_step (the state half of
    _step_arrays on one cluster) per step advances all of them, each
    commanded share * p_net as on the general loop; a zero or gate-dropped
    step only decays ipol, by the kernel's own operations at zero current.
    The loop records each step's start state (the command is share *
    target_w), and when it ends or raises one replay_steps call gives the
    completed steps' energies, the cluster sums m times one cluster's.
    State stays in Python floats, the arrays are read and written through
    memoryviews, and the plant gets its state back when the loop ends or
    raises.
    """
    kernel = plant.params.scalar_step
    split = plant.transformer_split
    m = float(plant.n_clusters)
    decay = float(plant.params.step_consts[0])
    tf_idle = split(0.0)[1]
    p_tot = float(np.sum(plant.params.rated_w))
    rated = plant.params.rated
    rated_tol = plant.params.rated_tol_w
    # the blocked mask of the one shared state
    soc_hi = plant.cfg.soc_max - SOC_GATE_TOL
    soc_lo = plant.cfg.soc_min + SOC_GATE_TOL
    # each step's start state, for the replay
    soc_at, ipol_at = np.empty((2, steps.demand_w.size))
    dv, tgv, tfv, sv, iv = (memoryview(a) for a in (
        steps.demand_w, steps.target_w, steps.tf_w, soc_at, ipol_at))

    soc, ipol = float(plant.soc[0]), float(plant.ipol[0])
    done = 0
    try:
        for i, p in enumerate(dv):
            sv[i] = soc
            iv[i] = ipol
            if (p > 0.0 and soc < soc_hi) or (p < 0.0 and soc > soc_lo):
                p, p_net, tf_w = _cap_to_plant(p, p_tot, split)
            else:
                p = 0.0     # zero, or dropped by the SoC gate
            dv[i] = p
            if p == 0.0:
                # target_w keeps its 0.0
                tfv[i] = tf_idle
                ipol = ipol * decay + 0.0
            else:
                p_clu = share * p_net
                if abs(p_clu) > rated_tol:
                    raise DomainError(
                        f"allocation infeasible: cluster 0 commanded "
                        f"{p_clu:.1f} W above its {rated:.0f} W rating")
                soc, ipol = kernel(soc, ipol, p_clu)
                tgv[i] = p_net
                tfv[i] = tf_w
            done = i + 1
    finally:
        plant.soc.fill(soc)
        plant.ipol.fill(ipol)
        steps.done = done
        totals = steps.totals[:, :done]
        replay_steps(soc_at[:done, None], ipol_at[:done, None],
                     (share * steps.target_w[:done])[:, None], plant.params,
                     totals, steps.e_dc0[:done], steps.truncated[:done])
        totals *= m
