"""Closed-loop simulation: day-ahead plans driving the plant model.

Each day of the horizon is planned independently (perfect foresight on
that day's load), all days at once, then executed step by step against
the plant with the chosen allocation mode. Per-step energies are recorded
for the analysis module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .allocator import PsoParams, balanced_allocation, pso_allocate, repair
from .config import AllocatorConfig, ScheduleConfig
from .errors import DomainError
from . import plant as plant_module
from .plant import E_AC, E_DC, SOC_GATE_TOL, SS, TS, Plant, replay_steps
from .scheduler import (
    LoadProfile,
    ShavingPlan,
    plan_horizon,
    replay_horizon,
)

# Blocked masks whose balanced row a general balanced run keeps at once
# (_balanced_share); a few days of a 100-cluster run meet about 70
BALANCED_ROWS_KEPT = 256

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


@dataclass
class _Steps:
    """What the loops of run_simulation write per step. demand_w starts as
    the planned demand and each step overwrites its sample with the power
    it commands; target_w and tf_w hold that power's p_net and transformer
    loss (W), which zero steps keep at 0 W's; totals ((E_DC, n) ledger
    rows), e_dc0 and truncated what replay_steps writes; alloc the
    allocation rows when recorded. done counts the steps completed."""

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

    Each step executes the plan's ungated demand (replay_horizon with
    gated=False), dropped when every cluster is blocked by a SoC bound for
    its direction (Plant.blocked_mask) and capped to what the free clusters
    can exchange. alloc_mode is 'balanced' or 'pso'; with 'pso' the
    allocation is re-optimized every realloc_cadence_s of simulated time
    and repaired against the current blocked mask in between. A zero step
    records the unblocked balanced allocation. The uniform loop caps and
    splits every planned sample in one array pass (_cap_to_plant), the
    general loop each step (_cap_one). Both advance the state alone and
    take every step's energies from replay_steps, on its recorded start
    state and command.
    A sample's error (a transformer overload, a rating breach, an
    infeasible power) is raised by the step that executes it, and the
    steps completed are booked (Plant.book) when the run ends or raises.
    """
    if alloc_mode not in ("balanced", "pso"):
        raise DomainError(f"unknown allocation mode {alloc_mode!r}")
    if alloc_mode == "pso" and pso_params is None:
        pso_params = PsoParams()
    dt = plant.cfg.dt_s
    if abs(profile.dt_s - dt) > 1e-9:
        raise DomainError("profile sampling must match the plant step")
    plans = plan_horizon(profile, power_depth_w, rated_energy_wh, method)
    n, m = profile.n_samples, plant.n_clusters
    # the balanced split with nothing blocked: the allocation of zero steps
    blocked = np.zeros(m, dtype=bool)
    balanced = repair(balanced_allocation(blocked), blocked)
    steps = _Steps(
        demand_w=replay_horizon(plans, profile, gated=False)["demand_w"],
        target_w=np.zeros(n), totals=np.zeros((E_DC, n)),
        tf_w=np.full(n, plant.transformer_split(0.0)[1]),
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


def _cap_to_plant(p: np.ndarray, avail_w: float, plant: Plant):
    """System powers p (an array) capped to what the available clusters
    can exchange, with their split by the plant (Plant._split): (p,
    p_net, tf_w, ok), raising nothing. A charge is capped at avail_w. A
    discharge must also cover the transformer loss, so p is split first,
    and split again only where the cap binds: the cap -max(avail_w -
    tf_w, 0) replaces p where it is above p (keeping p on a tie). ok is
    false where the first split is outside the transformer's domain (an
    overload; a capped command is smaller, so inside it): there p is only
    capped at avail_w, and p_net and tf_w mean nothing. _cap_one is the
    float form."""
    p = np.minimum(p, avail_w)
    p_net, tf_w, ok = plant._split(p)
    cap = -np.maximum(avail_w - tf_w, 0.0)
    capped = ok & (cap > p)
    if capped.any():
        p = np.where(capped, cap, p)
        p_net, tf_w, _ = plant._split(p)
    return p, p_net, tf_w, ok


def _cap_one(p: float, avail_w: float,
             plant: Plant) -> tuple[float, float, float]:
    """_cap_to_plant of one sample on Python floats (min and max for
    np.minimum and np.maximum): (p, p_net, tf_w). An overload raises
    transformer_split's DomainError."""
    p = min(p, avail_w)
    p_net, tf_w = plant.transformer_split(p)
    cap = -max(avail_w - tf_w, 0.0)
    if cap > p:
        return (cap, *plant.transformer_split(cap))
    return p, p_net, tf_w


def _balanced_share(rows: dict[bytes, np.ndarray], blocked: np.ndarray,
                    max_share: np.ndarray | None) -> np.ndarray:
    """repair(balanced_allocation(blocked), blocked, max_share), with the
    uncapped row kept in rows per blocked mask (BALANCED_ROWS_KEPT masks
    at most; a full rows is emptied). A row at or below every cap is what
    repair returns under those caps, bit for bit: nothing is over a cap
    and the final cut to the caps keeps it. Otherwise repair runs with the
    caps, and raises as it does."""
    key = blocked.tobytes()
    k = rows.get(key)
    if k is None:
        if len(rows) >= BALANCED_ROWS_KEPT:
            rows.clear()
        k = rows[key] = repair(balanced_allocation(blocked), blocked)
    if max_share is None or (k <= max_share).all():
        return k
    return repair(balanced_allocation(blocked), blocked, max_share)


def _run_general(plant: Plant, steps: _Steps, balanced: np.ndarray,
                 alloc_mode: str, pso_params: PsoParams | None,
                 cadence_steps: int) -> None:
    """The per-cluster loop: Plant.step advances the state and gives the
    cluster commands; at 0 W, or with every cluster blocked, ipol only
    decays (the kernel's own operations at zero current). Every other
    step is capped to its free clusters' rating and split on Python
    floats (_cap_one). With 'pso' the allocation is re-optimized every
    cadence_steps steps. A record of REPLAY_CLUSTER_STEPS // m steps'
    start states and commands is replayed (replay_steps) whenever it is
    full and when the loop ends or raises."""
    demand = steps.demand_w
    rated_w = plant.params.rated_w
    p_tot = float(np.sum(rated_w))
    decay = plant.params.step_consts[0]
    m = plant.n_clusters
    rows = max(plant_module.REPLAY_CLUSTER_STEPS // m, 1)
    soc_at, ipol_at, cmd_at = np.empty((3, rows, m))
    first = 0       # the step in row 0 of the record

    def replay(stop: int) -> None:
        n = stop - first
        replay_steps(soc_at[:n], ipol_at[:n], cmd_at[:n], plant.params,
                     steps.totals[:, first:stop], steps.e_dc0[first:stop],
                     steps.truncated[first:stop])

    k_current: np.ndarray | None = None
    balanced_rows: dict[bytes, np.ndarray] = {}
    try:
        for i in range(demand.size):
            steps.done = i
            if i - first == rows:
                replay(i)
                first = i
            row = i - first
            soc_at[row], ipol_at[row] = plant.soc, plant.ipol
            p = float(demand[i])
            blocked = plant.blocked_mask(p)
            n_blocked = np.count_nonzero(blocked)
            if p == 0.0 or n_blocked == m:
                demand[i] = 0.0     # as the cap writes it, not -0.0
                cmd_at[row] = 0.0
                plant.ipol = plant.ipol * decay + 0.0
                continue
            avail = float(rated_w[~blocked].sum()) if n_blocked else p_tot
            p, p_net, tf_w = _cap_one(p, avail, plant)
            max_share = rated_w / abs(p_net) if p_net != 0.0 else None
            if p == 0.0:
                k = balanced
            elif alloc_mode == "balanced":
                k = _balanced_share(balanced_rows, blocked, max_share)
            else:
                if k_current is None or i % cadence_steps == 0:
                    params = replace(pso_params,
                                     rng_seed=pso_params.rng_seed + i)
                    k_current, _ = pso_allocate(p, plant, params)
                k = repair(k_current, blocked, max_share)
            cmd_at[row] = plant.step(p_net, k)
            demand[i], steps.target_w[i], steps.tf_w[i] = p, p_net, tf_w
            if steps.alloc is not None:
                steps.alloc[i] = k
        steps.done = demand.size
    finally:
        replay(steps.done)


def _run_uniform(plant: Plant, steps: _Steps, share: float) -> None:
    """Balanced run of a uniform plant (see Plant.is_uniform).

    A balanced split over identical clusters keeps every cluster in the
    same state, so one state is stepped, each cluster commanded share *
    p_net as on the general loop. One array pass before the loop takes
    what the state does not decide: each sample's cap and split
    (_cap_to_plant at the plant's rating), its rating check and the
    command half of the kernel down to p_dc (plant._command). A step that
    passes the SoC gate calls plant.params.scalar_step, the scalar twin of
    _advance's state half, on its p_dc, or, for a sample that fails its
    split or rating check, raises by the scalar code (_cap_one, then
    Plant._cluster_targets); a zero or gate-dropped step only decays
    ipol, by the kernel's own operations at zero current. When the loop
    ends or raises, the completed steps take p_net and tf_w from the
    columns, and one replay_steps call on their recorded start states
    gives their energies, the cluster sums m times one cluster's. State
    stays in Python floats, the arrays are read and written through
    memoryviews, and the plant gets its state back at the end.
    """
    kernel = plant.params.scalar_step
    m = plant.n_clusters
    p_tot = float(np.sum(plant.params.rated_w))
    decay = float(plant.params.step_consts[0])
    # the blocked mask of the one shared state
    soc_hi = plant.cfg.soc_max - SOC_GATE_TOL
    soc_lo = plant.cfg.soc_min + SOC_GATE_TOL
    p_cap, p_net, tf_w, ok = _cap_to_plant(steps.demand_w, p_tot, plant)
    p_dc = share * p_net
    ok &= np.abs(p_dc) <= plant.params.rated_tol_w
    p_dc = plant_module._command(p_dc, plant.params)[2]
    # each step's start state, for the replay
    soc_at, ipol_at = np.empty((2, steps.demand_w.size))
    dv, capv, dcv, okv, sv, iv = map(memoryview, (
        steps.demand_w, p_cap, p_dc, ok, soc_at, ipol_at))

    soc, ipol = float(plant.soc[0]), float(plant.ipol[0])
    done = 0
    try:
        for i, p in enumerate(dv):
            sv[i] = soc
            iv[i] = ipol
            if (p > 0.0 and soc < soc_hi) or (p < 0.0 and soc > soc_lo):
                if not okv[i]:  # the scalar code raises its error here
                    net = _cap_one(p, p_tot, plant)[1]
                    plant._cluster_targets(net, np.full(m, share))
                    raise AssertionError(
                        f"step {i}: the array pass and the scalar split "
                        "disagree")
                dv[i] = capv[i]
                soc, ipol = kernel(soc, ipol, dcv[i])
            else:
                dv[i] = 0.0     # zero, or dropped by the SoC gate
                ipol = ipol * decay + 0.0   # target_w, tf_w keep theirs
            done = i + 1
    finally:
        plant.soc.fill(soc)
        plant.ipol.fill(ipol)
        steps.done = done
        ran = steps.demand_w[:done] != 0.0
        np.copyto(steps.target_w[:done], p_net[:done], where=ran)
        np.copyto(steps.tf_w[:done], tf_w[:done], where=ran)
        totals = steps.totals[:, :done]
        replay_steps(soc_at[:done, None], ipol_at[:done, None],
                     (share * steps.target_w[:done])[:, None], plant.params,
                     totals, steps.e_dc0[:done], steps.truncated[:done])
        totals *= m

