"""Discrete-time simulation of the storage plant power chain.

Topology: grid -> station transformer -> per-cluster AC/DC -> per-cluster
DC/DC -> battery cluster. Each step ledgers energy per component and the
ledger closes exactly: grid = stored + transformer + AC/DC + DC/DC +
battery ohmic + battery polarization (signed, both directions).

Within a step the battery terminal current is held constant (solved from
the commanded DC power at the step-start state); the polarization branch
and the OCV integral are then evaluated in closed form, so the per-step
energy split is exact rather than sampled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .errors import DomainError, InfeasiblePowerError, ConfigError
from .losses import (
    CellParams,
    PcsEfficiencyCoeffs,
    TransformerParams,
    transformer_loss,
    PCS_EFFICIENCY_FLOOR,
)

WH_PER_J = 1.0 / 3600.0
# SoC margin inside which a cluster counts as pinned at a bound (blocked_mask)
SOC_GATE_TOL = 1e-12
# Cluster-steps per _step_arrays call of replay_steps; bounds its memory
REPLAY_CLUSTER_STEPS = 4096


@dataclass(frozen=True)
class ClusterParams:
    """One battery cluster: series/parallel cell block behind its own PCS.

    Aggregate electrical values follow from the cell block layout:
    resistances scale by n_series/n_parallel, capacity by n_parallel,
    polarization capacitance by n_parallel/n_series (time constant is
    preserved).
    """

    cell: CellParams = field(default_factory=CellParams)
    n_series: int = 200
    n_parallel: int = 24
    rated_power_w: float = 50_000.0
    rated_energy_wh: float = 200_000.0
    dcdc_coeffs: PcsEfficiencyCoeffs = field(default_factory=PcsEfficiencyCoeffs)
    acdc_coeffs: PcsEfficiencyCoeffs = field(default_factory=PcsEfficiencyCoeffs)

    def __post_init__(self):
        for name in ("n_series", "n_parallel"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be at least 1", field=name)
        for name in ("rated_power_w", "rated_energy_wh"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be strictly positive",
                                  field=name)

    @property
    def r_ohm_agg(self) -> float:
        return self.cell.r_ohm * self.n_series / self.n_parallel

    @property
    def r_pol_agg(self) -> float:
        return self.cell.r_pol * self.n_series / self.n_parallel

    @property
    def c_pol_agg(self) -> float:
        return self.cell.c_pol * self.n_parallel / self.n_series

    @property
    def capacity_agg_ah(self) -> float:
        return self.cell.capacity_ah * self.n_parallel

    @property
    def time_constant_s(self) -> float:
        return self.cell.time_constant_s


@dataclass(frozen=True)
class PlantConfig:
    clusters: tuple[ClusterParams, ...]
    transformer: TransformerParams = field(default_factory=TransformerParams)
    dt_s: float = 60.0
    soc_min: float = 0.03
    soc_max: float = 0.97
    initial_soc: float = 0.5

    def __post_init__(self):
        if len(self.clusters) < 1:
            raise ConfigError("clusters", "at least one cluster required")
        if self.dt_s <= 0:
            raise ConfigError("dt_s", "must be strictly positive")
        if not (0.0 <= self.soc_min < self.soc_max <= 1.0):
            raise ConfigError("soc_min/soc_max",
                              "need 0 <= soc_min < soc_max <= 1")
        if not (self.soc_min <= self.initial_soc <= self.soc_max):
            raise ConfigError("initial_soc", "must lie inside the SoC band")

    @property
    def total_rated_power_w(self) -> float:
        return sum(c.rated_power_w for c in self.clusters)

    @property
    def total_rated_energy_wh(self) -> float:
        return sum(c.rated_energy_wh for c in self.clusters)


@dataclass
class LossBreakdown:
    """Per-component energy ledger for one step or an accumulated run (Wh);
    Plant.book fills it with arrays, one entry per step.

    Losses are always non-negative; stored_wh and grid_wh are signed
    (positive = charging direction).
    """

    transformer_wh: float = 0.0
    acdc_wh: float = 0.0
    dcdc_wh: float = 0.0
    battery_ohmic_wh: float = 0.0
    battery_polarization_wh: float = 0.0
    stored_wh: float = 0.0
    grid_wh: float = 0.0

    @property
    def total_loss_wh(self) -> float:
        return (self.transformer_wh + self.acdc_wh + self.dcdc_wh
                + self.battery_ohmic_wh + self.battery_polarization_wh)

    def balance_residual_wh(self) -> float:
        return self.grid_wh - self.stored_wh - self.total_loss_wh


# Rows of the energy stack returned by _step_arrays (all in Wh). The rows
# before E_DC are the ones a run totals over clusters (its ledger rows);
# E_DC is read for cluster 0 alone.
E_AC, STORED, ACDC, DCDC, OHMIC, POLARIZATION, SS, TS, E_DC = range(9)


def _shared(values: np.ndarray):
    """Per-cluster values (clusters on the last axis) for the step kernel.

    When every cluster has the same values they come back as a float, or
    a list of floats for a coefficient table: a scalar broadcasts exactly
    like the array of its copies, and spares numpy the per-cluster stride
    in batch operations.
    """
    if (values == values[..., :1]).all():
        return values[..., 0].tolist()
    return values


class _ParamArrays:
    """Cluster parameters flattened to numpy arrays for vectorized stepping.

    rated_w is always an (m,) array; the constants only the step kernel
    reads are shared scalars where every cluster agrees (see _shared).
    Also holds the plant's step length dt and the constants that depend on
    it: step_consts for _step_arrays and, for a plant of identical
    clusters, the scalar kernel scalar_step (None otherwise).
    """

    def __init__(self, clusters: tuple[ClusterParams, ...],
                 soc_min: float, soc_max: float, dt: float):
        m = len(clusters)
        self.m = m
        self.soc_min = soc_min
        self.soc_max = soc_max
        self.dt = dt
        self.rated_w = np.array([c.rated_power_w for c in clusters])
        self.identical = all(c == clusters[0] for c in clusters[1:])
        self.rated = _shared(self.rated_w)
        r_ohm = _shared(np.array([c.r_ohm_agg for c in clusters]))
        self.r_pol = _shared(np.array([c.r_pol_agg for c in clusters]))
        tau = _shared(np.array([c.time_constant_s for c in clusters]))
        cap_ah = _shared(np.array([c.capacity_agg_ah for c in clusters]))
        self.n_series = _shared(np.array([float(c.n_series) for c in clusters]))
        # coefficient tables, shape (degree+1, m), low order first
        ocv_b = np.array([c.cell.ocv.b for c in clusters]).T
        self.ocv_b = _shared(ocv_b)
        # OCV antiderivative divided by soc: coefficients b_j / (j + 1)
        self.ocv_anti = _shared(ocv_b / np.arange(1.0, 1.0 + len(ocv_b))[:, None])
        self.acdc_a = _shared(np.array([c.acdc_coeffs.a for c in clusters]).T)
        self.dcdc_a = _shared(np.array([c.dcdc_coeffs.a for c in clusters]).T)
        self.r_ohm4 = 4.0 * r_ohm
        self.rated_tol_w = self.rated * (1.0 + 1e-9)
        # decay = exp(-dt/tau), coulomb (SoC change per ampere), tau (1 - decay),
        # tau/2 (1 - decay^2), and r_ohm dt, r_pol dt, (r_ohm + r_pol) dt
        decay = np.exp(-dt / tau)
        self.step_consts = (decay, dt / (3600.0 * cap_ah), tau * (1.0 - decay),
                            (tau / 2.0) * (1.0 - decay * decay), r_ohm * dt,
                            self.r_pol * dt, (r_ohm + self.r_pol) * dt)
        self.scalar_step = _scalar_kernel(self) if self.identical else None


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """Evaluate per-cluster polynomials; coeffs shape (deg+1, m) or a list
    of deg+1 shared coefficients, low order first."""
    y = x * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        y += c
        y *= x
    y += coeffs[0]
    return y


def _efficiency(coeffs, lam: np.ndarray) -> np.ndarray:
    """Converter efficiency at load factor lam, kept in [floor, 1]."""
    eta = _horner(coeffs, lam)
    np.maximum(eta, PCS_EFFICIENCY_FLOOR, out=eta)
    return np.minimum(eta, 1.0, out=eta)


def _mean_ocv(anti, soc_c: np.ndarray, soc_n: np.ndarray) -> np.ndarray:
    """Mean of the cubic OCV fit over [soc_c, soc_n] per series cell: the
    divided difference of its antiderivative sum_j f_j s^(j+1), anti = f
    as _ParamArrays.ocv_anti, summed as sum_j f_j h_j with h_j = sum_i
    soc_n^i soc_c^(j-i) = h_(j-1) soc_n + soc_c^j. No difference quotient,
    so no cancellation when a cluster barely moves."""
    f0, f1, f2, f3 = anti
    c_pow = soc_c * soc_c
    h = soc_n + soc_c
    v = h * f1
    v += f0
    h *= soc_n
    h += c_pow
    v += h * f2
    c_pow *= soc_c
    h *= soc_n
    h += c_pow
    h *= f3
    v += h
    return v


def _step_arrays(soc, ipol, p_ac_cmd_w, pp: _ParamArrays):
    """Advance cluster states one step of pp.dt under commanded AC powers.

    All inputs broadcast against each other along the last (cluster) axis,
    so a batch of candidate allocations can be evaluated in one call.

    Returns (soc, ipol, current, truncated, E): next state, terminal
    current (A), the SoC-truncation flag, and the energy stack E of shape
    (9,) + broadcast shape, in Wh. Its rows, indexed by the module
    constants of the same names, are E_AC (grid side of the cluster),
    STORED, ACDC, DCDC, OHMIC, POLARIZATION, the steady/transient battery
    loss split SS and TS, and E_DC (battery port).
    """
    p_ac = np.asarray(p_ac_cmd_w, dtype=float)
    soc = np.asarray(soc, dtype=float)
    ipol = np.asarray(ipol, dtype=float)
    dt = pp.dt
    (decay, coulomb, tau_1md, tau_half_1md2,
     r_ohm_dt, r_pol_dt, r_sum_dt) = pp.step_consts

    charging = p_ac >= 0.0
    lam = np.abs(p_ac) / pp.rated
    np.minimum(lam, 1.0, out=lam)
    eta_ac = _efficiency(pp.acdc_a, lam)
    eta_dc = _efficiency(pp.dcdc_a, lam)
    eta2 = eta_ac * eta_dc

    # Commanded DC power: conversion losses come off the grid side when
    # charging and are supplied by the battery when discharging.
    p_dc = p_ac / eta2
    np.multiply(p_ac, eta2, out=p_dc, where=charging)

    # Terminal current from the battery-side power balance
    #   r_ohm * I^2 + (V_oc + r_pol * i_pol) * I = P_dc
    # smaller-magnitude root, sign matching P_dc (stable quadratic form).
    v_oc = pp.n_series * _horner(pp.ocv_b, soc)
    b = v_oc + pp.r_pol * ipol
    disc = pp.r_ohm4 * p_dc + b * b     # full broadcast shape from here on
    if disc.min() < 0.0:
        raise InfeasiblePowerError(
            "demanded power exceeds maximum deliverable battery power")
    np.sqrt(disc, out=disc)
    disc += b
    current = np.divide(2.0 * p_dc, disc, out=disc)

    # SoC bound truncation: largest feasible constant current for the full dt.
    i_lo = np.minimum((pp.soc_min - soc) / coulomb, 0.0)
    i_hi = np.maximum((pp.soc_max - soc) / coulomb, 0.0)
    i_clamped = np.maximum(current, i_lo)
    np.minimum(i_clamped, i_hi, out=i_clamped)
    truncated = i_clamped != current
    current = i_clamped
    cur2 = current * current
    cur_dt = current * dt

    soc_new = current * coulomb
    soc_new += soc

    # Closed-form RC branch integrals for constant current over the step.
    d0 = ipol - current
    ipol_new = d0 * decay
    ipol_new += current
    d0_tau = d0 * tau_1md
    j1 = d0_tau + cur_dt                                         # int i_pol
    j2 = d0 * d0
    j2 *= tau_half_1md2
    d0_tau *= current
    d0_tau *= 2.0
    j2 += d0_tau
    j2 += cur2 * dt                                              # int i_pol^2

    # Mean OCV over the traversed SoC interval (exact for the cubic fit).
    soc_c = np.minimum(np.maximum(soc, 0.0), 1.0)
    soc_n = np.minimum(np.maximum(soc_new, 0.0), 1.0)
    v_mean = _mean_ocv(pp.ocv_anti, soc_c, soc_n)
    v_mean *= pp.n_series

    # Energy pieces (J), written straight into the stack. stored is defined
    # as the residual of the exact DC-side energy so the ledger closes
    # bit-exactly; physically it equals chemical energy plus the
    # polarization capacitor energy change.
    E = np.empty((9,) + current.shape)
    e_ohm = np.multiply(cur2, r_ohm_dt, out=E[OHMIC])
    e_pol = np.multiply(pp.r_pol, j2, out=E[POLARIZATION])
    e_dc = np.multiply(cur_dt, v_mean, out=E[E_DC])
    e_dc += e_ohm
    j1 *= current
    j1 *= pp.r_pol
    e_dc += j1
    e_stored = np.subtract(e_dc, e_ohm, out=E[STORED])
    e_stored -= e_pol

    # Converter chain; with signed energies the stage losses are the
    # differences e_ac - e_mid and e_mid - e_dc in both directions, so the
    # ledger closes exactly.
    e_mid = e_dc * eta_dc
    np.divide(e_dc, eta_dc, out=e_mid, where=charging)
    np.subtract(e_mid, e_dc, out=E[DCDC])
    e_ac = np.multiply(e_mid, eta_ac, out=E[E_AC])
    np.divide(e_mid, eta_ac, out=e_ac, where=charging)
    np.subtract(e_ac, e_mid, out=E[ACDC])

    np.multiply(cur2, r_sum_dt, out=E[SS])
    cur2 *= r_pol_dt
    np.subtract(e_pol, cur2, out=E[TS])

    E *= WH_PER_J
    return soc_new, ipol_new, current, truncated, E


def _scalar_kernel(pp: _ParamArrays):
    """The state half of _step_arrays for one cluster on Python floats,
    for a plant whose clusters all share their constants (pp.identical, or
    one cluster): efficiency, current solve and SoC clamp, then the next
    state. The energies come from _step_arrays alone (see replay_steps).

    An operation-for-operation transcription of _step_arrays on the same
    constants, np.minimum(x, y) / np.maximum(x, y) written as x if x < y /
    x > y else y. numpy leaves open which operand a tie returns; only -0.0
    against +0.0 (a -0.0 current at a SoC bound) ties with different bits.
    Bit equality with the array kernel is what test_matches_scalar_twin and
    TestUniformFastPathProperty check on the numpy build the tests run on.
    Returns step(soc, ipol, p_ac) -> (soc', ipol').
    """
    a0, a1, a2, a3, a4 = pp.acdc_a
    c0, c1, c2, c3, c4 = pp.dcdc_a
    b0, b1, b2, b3 = pp.ocv_b
    decay, coulomb = map(float, pp.step_consts[:2])
    rated, n_series, r_pol, r_ohm4 = pp.rated, pp.n_series, pp.r_pol, pp.r_ohm4
    soc_min, soc_max = pp.soc_min, pp.soc_max
    floor = PCS_EFFICIENCY_FLOOR
    sqrt = math.sqrt

    def step(soc: float, ipol: float, p_ac: float) -> tuple[float, float]:
        lam = abs(p_ac) / rated
        lam = lam if lam < 1.0 else 1.0
        eta_ac = (((lam * a4 + a3) * lam + a2) * lam + a1) * lam + a0
        eta_ac = eta_ac if eta_ac > floor else floor
        eta_ac = eta_ac if eta_ac < 1.0 else 1.0
        eta_dc = (((lam * c4 + c3) * lam + c2) * lam + c1) * lam + c0
        eta_dc = eta_dc if eta_dc > floor else floor
        eta_dc = eta_dc if eta_dc < 1.0 else 1.0
        eta2 = eta_ac * eta_dc
        p_dc = p_ac * eta2 if p_ac >= 0.0 else p_ac / eta2

        v_oc = n_series * (((soc * b3 + b2) * soc + b1) * soc + b0)
        b = v_oc + r_pol * ipol
        disc = r_ohm4 * p_dc + b * b
        if disc < 0.0:
            raise InfeasiblePowerError(
                "demanded power exceeds maximum deliverable battery power")
        current = (2.0 * p_dc) / (sqrt(disc) + b)

        i_lo = (soc_min - soc) / coulomb
        i_lo = i_lo if i_lo < 0.0 else 0.0
        i_hi = (soc_max - soc) / coulomb
        i_hi = i_hi if i_hi > 0.0 else 0.0
        current = current if current > i_lo else i_lo
        current = current if current < i_hi else i_hi
        return current * coulomb + soc, (ipol - current) * decay + current

    return step


def replay_steps(soc, ipol, p_ac, pp: _ParamArrays, totals: np.ndarray,
                 e_dc0: np.ndarray, truncated: np.ndarray) -> None:
    """The energies of n recorded steps: _step_arrays from each step's
    start state under its command. soc, ipol and p_ac are (n, c) arrays,
    one row per step over c clusters (the plant's m, or one that stands
    for a uniform plant's), or (c,) arrays that every step shares, which
    the kernel then evaluates once per call rather than per step. Writes
    the ledger rows (E_AC ... TS) of the steps' energy stacks summed over
    the c clusters into totals, (E_DC, n) in Wh; cluster 0's battery port
    energies into e_dc0, (n,); and whether any cluster hit a SoC bound
    into truncated, (n,).
    Each kernel call takes REPLAY_CLUSTER_STEPS cluster-steps at most,
    which bounds the memory of its stacks."""
    n, c = np.broadcast_shapes(soc.shape, ipol.shape, p_ac.shape)
    chunk = max(REPLAY_CLUSTER_STEPS // c, 1)
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        _, _, _, trunc, E = _step_arrays(
            *(a[rows] if a.ndim == 2 else a for a in (soc, ipol, p_ac)), pp)
        totals[:, rows] = E[:E_DC].sum(axis=-1)
        e_dc0[rows] = E[E_DC, :, 0]
        truncated[rows] = trunc.any(axis=-1)


class Plant:
    """Mutable plant state: per-cluster SoC and polarization current arrays.

    One Plant value is confined to a single simulation thread; distinct
    values may be stepped in parallel.
    """

    def __init__(self, cfg: PlantConfig):
        self.cfg = cfg
        self.params = _ParamArrays(cfg.clusters, cfg.soc_min, cfg.soc_max,
                                   cfg.dt_s)
        self.soc = np.full(self.params.m, cfg.initial_soc, dtype=float)
        self.ipol = np.zeros(self.params.m, dtype=float)
        self.t_elapsed = 0.0
        self.cumulative = LossBreakdown()
        self.max_balance_residual_rel = 0.0

    @property
    def n_clusters(self) -> int:
        return self.params.m

    def blocked_mask(self, p_sys_w: float) -> np.ndarray:
        """Clusters pinned at the SoC bound opposing the requested direction."""
        if p_sys_w > 0:
            return self.soc >= self.cfg.soc_max - SOC_GATE_TOL
        if p_sys_w < 0:
            return self.soc <= self.cfg.soc_min + SOC_GATE_TOL
        return np.zeros(self.params.m, dtype=bool)

    def transformer_split(self, p_sys_w: float) -> tuple[float, float]:
        """(p_net, tf_w): the total power the clusters exchange for a
        system-level command, and the transformer loss it carries.

        p_net is less than p_sys when charging and more in magnitude when
        discharging (the clusters also feed the loss).
        """
        tf_w = transformer_loss(
            abs(p_sys_w) / self.cfg.transformer.rated_power_w,
            self.cfg.transformer)
        if p_sys_w > 0:
            return max(p_sys_w - tf_w, 0.0), tf_w
        if p_sys_w < 0:
            return p_sys_w - tf_w, tf_w
        return 0.0, tf_w

    def net_cluster_power(self, p_sys_w: float) -> float:
        """Total power the clusters exchange for a system-level command."""
        return self.transformer_split(p_sys_w)[0]

    def _cluster_targets(self, p_net_w: float, alloc: np.ndarray) -> np.ndarray:
        """Per-cluster AC targets alloc * p_net_w, checked against ratings."""
        k = np.asarray(alloc, dtype=float)
        if k.shape[-1] != self.params.m:
            raise DomainError("allocation length does not match cluster count")
        targets = k * p_net_w
        over = np.abs(targets) > self.params.rated_tol_w
        if over.any():
            j = int(np.argmax(over))
            raise DomainError(
                f"allocation infeasible: cluster {j} commanded "
                f"{targets[j]:.1f} W above its {self.params.rated_w[j]:.0f} W rating")
        return targets

    def step(self, p_net_w: float,
             alloc: np.ndarray) -> tuple[np.ndarray, float, bool]:
        """Advance soc and ipol one step, the clusters exchanging p_net_w
        (transformer_split(p_sys)[0]) in shares alloc; books nothing (see
        book). Returns the step's eight ledger rows summed over clusters
        (Wh, E_AC ... TS, no transformer), cluster 0's battery port energy
        (Wh, its E_DC row) and whether any cluster hit a SoC bound."""
        targets = self._cluster_targets(p_net_w, alloc)
        self.soc, self.ipol, _, truncated, E = _step_arrays(
            self.soc, self.ipol, targets, self.params)
        return (E[:E_DC].sum(axis=-1), float(E[E_DC, 0]),
                bool(truncated.any()))

    def idle(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance n zero-command steps: bit for bit n calls of step(0.0, k),
        any allocation k, their results stacked as (E_DC, n), (n,) and (n,)
        arrays. At zero current SoC stays put and ipol -> (ipol - 0) *
        decay + 0, so the start states are a running product, built one
        replay_steps kernel call at a time, which gives their energies."""
        pp = self.params
        out = np.empty((E_DC, n)), np.empty(n), np.empty(n, dtype=bool)
        chunk = max(REPLAY_CLUSTER_STEPS // pp.m, 1)
        for start in range(0, n, chunk):
            rows = slice(start, min(start + chunk, n))
            ipol = np.empty((rows.stop - start + 1, pp.m))
            ipol[0] = self.ipol
            ipol[1:] = pp.step_consts[0]
            np.multiply.accumulate(ipol, out=ipol)
            ipol[1:] += 0.0     # the kernel's "+ current": -0.0 becomes 0.0
            self.ipol = ipol[-1].copy()
            replay_steps(self.soc, ipol[:-1], np.zeros(pp.m), pp,
                         *(a[..., rows] for a in out))
        return out

    def book(self, totals: np.ndarray, tf_w: np.ndarray) -> dict:
        """Book n steps: the columns of totals, (E_DC, n) ledger rows as
        step and idle return them, with transformer loss powers tf_w (W).
        The one writer, besides __init__ and restore, of t_elapsed,
        cumulative and the worst relative ledger residual. Returns the
        per-step ledger columns (Wh) keyed by LossBreakdown field name.
        Running sums use np.add.accumulate, so one call is bit for bit n
        one-step calls; cumulative is the plant's checkpoint state, carried
        across runs, not a run's totals (see SimulationResult.loss_wh)."""
        dt = self.cfg.dt_s
        tf_wh = tf_w * dt * WH_PER_J
        steps = LossBreakdown(
            transformer_wh=tf_wh, acdc_wh=totals[ACDC], dcdc_wh=totals[DCDC],
            battery_ohmic_wh=totals[OHMIC],
            battery_polarization_wh=totals[POLARIZATION],
            stored_wh=totals[STORED], grid_wh=totals[E_AC] + tf_wh)

        def running(start: float, values) -> float:
            return float(np.add.accumulate(np.append(start, values))[-1])

        self.t_elapsed = running(self.t_elapsed, np.full(tf_wh.size, dt))
        for name, column in vars(steps).items():
            setattr(self.cumulative, name,
                    running(getattr(self.cumulative, name), column))
        scale = np.maximum(np.abs(steps.grid_wh), np.abs(steps.stored_wh))
        np.maximum(scale, np.maximum(steps.total_loss_wh, 1e-30), out=scale)
        rel = np.abs(steps.balance_residual_wh()) / scale
        self.max_balance_residual_rel = float(
            rel.max(initial=self.max_balance_residual_rel))
        return vars(steps)

    def is_uniform(self) -> bool:
        """True when every cluster has identical parameters and state."""
        return (self.params.identical
                and bool(np.all(self.soc == self.soc[0]))
                and bool(np.all(self.ipol == self.ipol[0])))

    def evaluate_allocations(self, p_net_w: float, K: np.ndarray) -> np.ndarray:
        """Fitness of candidate allocations without mutating plant state.

        K has shape (n_candidates, m); each row shares p_net_w, the
        net_cluster_power of the system command. Charging: net battery energy
        stored (Wh). Discharging: net AC energy delivered, counting the battery
        energy expended against it (so for a fixed delivery target the
        least lossy split wins, while under-delivering through SoC
        truncation is weighted twice and never attractive). Candidates
        commanding any cluster above its rating score -inf. The shared
        transformer term is constant across candidates and omitted.
        """
        K = np.atleast_2d(np.asarray(K, dtype=float))
        targets = K * p_net_w
        rated = self.params.rated
        infeasible = (np.abs(targets) > self.params.rated_tol_w).any(axis=-1)
        # clamp to the rating so infeasible rows still step (scored -inf)
        safe_targets = np.minimum(targets, rated)
        np.maximum(safe_targets, -rated, out=safe_targets)
        E = _step_arrays(self.soc, self.ipol, safe_targets, self.params)[4]
        if p_net_w >= 0:
            fitness = E[STORED].sum(axis=-1)
        else:
            delivered = -E[E_AC].sum(axis=-1)
            drawn = -E[STORED].sum(axis=-1)
            fitness = 2.0 * delivered - drawn
        fitness[infeasible] = -np.inf
        return fitness

    def snapshot(self) -> dict:
        """JSON-ready state snapshot for checkpoint/restart."""
        return {
            "soc": self.soc.tolist(),
            "i_pol": self.ipol.tolist(),
            "t_elapsed_s": self.t_elapsed,
            "cumulative_wh": asdict(self.cumulative),
        }

    def restore(self, snap: dict) -> None:
        """Take the state of a snapshot(). A value outside the state's
        domain is rejected by its field, e.g. `snapshot.soc[0]`: SoC
        outside [soc_min, soc_max] (give or take SOC_GATE_TOL, since a
        truncated step can land an ulp past the bound), a non-finite i_pol,
        a negative or non-finite t_elapsed_s, and a missing or unknown
        cumulative_wh key."""
        soc = np.asarray(snap["soc"], dtype=float)
        ipol = np.asarray(snap["i_pol"], dtype=float)
        if soc.shape != (self.params.m,) or ipol.shape != (self.params.m,):
            raise DomainError("snapshot cluster count does not match plant")
        lo, hi = self.cfg.soc_min, self.cfg.soc_max
        bad = np.flatnonzero(~((soc >= lo - SOC_GATE_TOL)
                               & (soc <= hi + SOC_GATE_TOL)))
        if bad.size:
            raise DomainError(f"SoC {soc[bad[0]]} outside [{lo}, {hi}]",
                              field=f"snapshot.soc[{bad[0]}]")
        bad = np.flatnonzero(~np.isfinite(ipol))
        if bad.size:
            raise DomainError("polarization current must be finite",
                              field=f"snapshot.i_pol[{bad[0]}]")
        t_elapsed = float(snap["t_elapsed_s"])
        if not (math.isfinite(t_elapsed) and t_elapsed >= 0.0):
            raise DomainError("elapsed time must be finite and non-negative",
                              field="snapshot.t_elapsed_s")
        cumulative = snap["cumulative_wh"]
        keys = [f.name for f in fields(LossBreakdown)]
        missing = [k for k in keys if k not in cumulative]
        unknown = [k for k in cumulative if k not in keys]
        if missing or unknown:
            raise DomainError(
                f"{'missing' if missing else 'unknown'} ledger entry",
                field=f"snapshot.cumulative_wh.{(missing or unknown)[0]}")
        self.soc = soc
        self.ipol = ipol
        self.t_elapsed = t_elapsed
        self.cumulative = LossBreakdown(**cumulative)

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    def restore_json(self, text: str) -> None:
        self.restore(json.loads(text))


def uniform_plant_config(n_clusters: int, cluster: ClusterParams | None = None,
                         **kwargs) -> PlantConfig:
    """Convenience constructor for a plant of identical clusters."""
    cluster = cluster or ClusterParams()
    return PlantConfig(clusters=(cluster,) * n_clusters, **kwargs)
