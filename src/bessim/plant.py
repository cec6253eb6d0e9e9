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
    _efficiency,
    _horner,
    _rc_decay,
)

WH_PER_J = 1.0 / 3600.0
# SoC margin inside which a cluster counts as pinned at a bound (blocked_mask)
SOC_GATE_TOL = 1e-12
# Cluster-steps per _step_arrays call of replay_steps, and of the general
# run loop's record of steps to replay; bounds the memory of both
REPLAY_CLUSTER_STEPS = 4096
_FLOAT_MAX = math.nextafter(math.inf, 0.0)     # the largest finite float


# The shortest step (s) a day may be split into
MIN_DT_S = 1.0


def steps_per_day(dt_s: float) -> int:
    """Steps of dt_s seconds in one day: a whole number (within 1e-9), at
    least one, of at least MIN_DT_S each, or a DomainError naming dt_s."""
    if 0.0 < dt_s < MIN_DT_S:
        raise DomainError(f"dt_s must be at least {MIN_DT_S:g} s",
                          field="dt_s")
    per_day = 86_400.0 / dt_s if dt_s > 0 else math.nan
    if not (0.5 <= per_day < math.inf
            and abs(per_day - round(per_day)) <= 1e-9):
        raise DomainError("dt_s must divide one day evenly", field="dt_s")
    return round(per_day)


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
        steps_per_day(self.dt_s)
        if not (0.0 <= self.soc_min < self.soc_max <= 1.0):
            raise ConfigError("soc_min/soc_max",
                              "need 0 <= soc_min < soc_max <= 1")
        if not (self.soc_min <= self.initial_soc <= self.soc_max):
            raise ConfigError("initial_soc", "must lie inside the SoC band")

    @property
    def total_rated_power_w(self) -> float:
        return sum(c.rated_power_w for c in self.clusters)


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
    clusters, the scalar kernel scalar_step (None otherwise). same_pcs
    records that every cluster's AC/DC and DC/DC efficiency tables are
    equal, so that _command evaluates each distinct converter fit once.
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
        self.same_pcs = all(c.acdc_coeffs == c.dcdc_coeffs for c in clusters)
        self.r_ohm4 = 4.0 * r_ohm
        self.rated_tol_w = self.rated * (1.0 + 1e-9)
        # decay = exp(-dt/tau), coulomb (SoC change per ampere), tau (1 - decay),
        # tau/2 (1 - decay^2), and r_ohm dt, r_pol dt, (r_ohm + r_pol) dt
        decay = _rc_decay(dt, tau)
        self.step_consts = (decay, dt / (3600.0 * cap_ah), tau * (1.0 - decay),
                            (tau / 2.0) * (1.0 - decay * decay), r_ohm * dt,
                            self.r_pol * dt, (r_ohm + self.r_pol) * dt)
        self.scalar_step = _scalar_kernel(self) if self.identical else None


def _mean_ocv(anti, soc_c: np.ndarray, soc_n: np.ndarray,
              c_pow=None) -> np.ndarray:
    """Mean of the cubic OCV fit over [soc_c, soc_n] per series cell: the
    divided difference of its antiderivative sum_j f_j s^(j+1), anti = f
    as _ParamArrays.ocv_anti, summed as sum_j f_j h_j with h_j = sum_i
    soc_n^i soc_c^(j-i) = h_(j-1) soc_n + soc_c^j. No difference quotient,
    so no cancellation when a cluster barely moves. c_pow is (soc_c^2,
    soc_c^3) as _soc_start gives them, or None to take them here (soc_c
    lies in [0, 1], which _soc_start's clamp leaves as it is)."""
    f0, f1, f2, f3 = anti
    c2, c3 = c_pow or _soc_start(soc_c)[1:]
    h = soc_n + soc_c
    v = h * f1
    v += f0
    h *= soc_n
    h += c2
    v += h * f2
    h *= soc_n
    h += c3
    h *= f3
    v += h
    return v


def _soc_start(soc):
    """What _battery_energies reads of a step's start SoC: soc_c, the SoC
    clamped to [0, 1], and its square and cube."""
    soc_c = np.minimum(np.maximum(soc, 0.0), 1.0)
    c2 = soc_c * soc_c
    return soc_c, c2, c2 * soc_c


def _command(p_ac, pp: _ParamArrays):
    """The command half of _advance, which depends on the AC commands p_ac
    alone: load factor, converter efficiencies and the commanded DC power.
    Each distinct converter fit is evaluated once: on a plant whose AC/DC
    and DC/DC tables are equal (pp.same_pcs), eta_dc is eta_ac itself.
    Returns (eta_ac, eta_dc, p_dc), each of p_ac's shape."""
    charging = p_ac >= 0.0
    lam = np.abs(p_ac)
    lam /= pp.rated
    np.minimum(lam, 1.0, out=lam)
    eta_ac = _efficiency(pp.acdc_a, lam)
    eta_dc = eta_ac if pp.same_pcs else _efficiency(pp.dcdc_a, lam)
    eta2 = np.multiply(eta_ac, eta_dc, out=lam)

    # Commanded DC power: conversion losses come off the grid side when
    # charging and are supplied by the battery when discharging.
    p_dc = p_ac / eta2
    np.multiply(p_ac, eta2, out=p_dc, where=charging)
    return eta_ac, eta_dc, p_dc


def _current_terms(soc, ipol, pp: _ParamArrays):
    """What _battery_step reads of a step's start state: b = V_oc + r_pol
    i_pol, b * b, and the SoC current bounds (i_lo, i_hi), the largest
    constant currents that keep the SoC inside [soc_min, soc_max] for the
    full dt."""
    coulomb = pp.step_consts[1]
    v_oc = pp.n_series * _horner(pp.ocv_b, soc)
    b = v_oc + pp.r_pol * ipol
    i_lo = np.minimum((pp.soc_min - soc) / coulomb, 0.0)
    i_hi = np.maximum((pp.soc_max - soc) / coulomb, 0.0)
    return b, b * b, i_lo, i_hi


def _state_terms(soc, ipol, pp: _ParamArrays):
    """Every term of a step that its start state alone decides:
    (_current_terms, _soc_start). The terms are only read, so one set
    serves any number of commands from that state."""
    return _current_terms(soc, ipol, pp), _soc_start(soc)


def _battery_step(soc, terms, p_dc, pp: _ParamArrays):
    """Current solve and SoC clamp for the commanded DC power p_dc, whose
    buffer it takes over, from the start SoC and its _current_terms.
    Returns (soc_new, current, unclamped): the next SoC, the clamped
    terminal current and the current before the clamp."""
    b, b2, i_lo, i_hi = terms
    # Terminal current from the battery-side power balance
    #   r_ohm * I^2 + (V_oc + r_pol * i_pol) * I = P_dc
    # smaller-magnitude root, sign matching P_dc (stable quadratic form).
    disc = np.multiply(pp.r_ohm4, p_dc)
    disc += b2
    if disc.min() < 0.0:
        raise InfeasiblePowerError(
            "demanded power exceeds maximum deliverable battery power")
    np.sqrt(disc, out=disc)
    disc += b
    p_dc *= 2.0
    unclamped = np.divide(p_dc, disc, out=disc)

    # SoC bound truncation: largest feasible constant current for the full dt.
    current = np.maximum(unclamped, i_lo, out=p_dc)
    np.minimum(current, i_hi, out=current)
    soc_new = current * pp.step_consts[1]
    soc_new += soc
    return soc_new, current, unclamped


def _advance(soc, ipol, p_ac, pp: _ParamArrays):
    """The state half of _step_arrays: the command half (_command), then
    current solve and SoC clamp (_battery_step), then the next
    polarization current. p_ac has the full broadcast shape of the inputs,
    and intermediates are written into buffers of that shape that earlier
    ones are done with. Returns (soc, ipol, current, truncated, eta_ac,
    eta_dc), the last two for the energy half."""
    eta_ac, eta_dc, p_dc = _command(p_ac, pp)
    soc_new, current, unclamped = _battery_step(
        soc, _current_terms(soc, ipol, pp), p_dc, pp)
    truncated = current != unclamped
    ipol_new = ipol - current
    ipol_new *= pp.step_consts[0]
    ipol_new += current
    return soc_new, ipol_new, current, truncated, eta_ac, eta_dc


def _battery_energies(start, ipol, soc_new, current, pp: _ParamArrays):
    """The battery part of a step's energies (J), from the step's start
    state (the _soc_start of its SoC, and ipol) and _advance's next SoC
    and current: (cur2, e_ohm, e_pol, e_dc, stored), cur2 the squared
    current the steady/transient split reads.

    The polarization branch and the OCV integral are closed-form for a
    constant current over the step. stored is defined as the residual of
    the exact DC-side energy e_dc so the ledger closes bit-exactly;
    physically it equals chemical energy plus the polarization capacitor
    energy change.
    """
    dt = pp.dt
    _, _, tau_1md, tau_half_1md2, r_ohm_dt = pp.step_consts[:5]

    cur2 = current * current
    cur_dt = current * dt

    # Closed-form RC branch integrals for constant current over the step.
    d0 = ipol - current
    d0_tau = d0 * tau_1md
    j1 = d0_tau + cur_dt                                         # int i_pol
    j2 = np.multiply(d0, d0, out=d0)
    j2 *= tau_half_1md2
    d0_tau *= current
    d0_tau *= 2.0
    j2 += d0_tau
    j2 += np.multiply(cur2, dt, out=d0_tau)                      # int i_pol^2

    # Mean OCV over the traversed SoC interval (exact for the cubic fit).
    soc_c, *c_pow = start
    soc_n = np.maximum(soc_new, 0.0)
    np.minimum(soc_n, 1.0, out=soc_n)
    v_mean = _mean_ocv(pp.ocv_anti, soc_c, soc_n, c_pow)
    v_mean *= pp.n_series

    e_ohm = cur2 * r_ohm_dt
    e_pol = np.multiply(j2, pp.r_pol, out=j2)
    e_dc = np.multiply(cur_dt, v_mean, out=cur_dt)
    e_dc += e_ohm
    j1 *= current
    j1 *= pp.r_pol
    e_dc += j1
    stored = e_dc - e_ohm
    stored -= e_pol
    return cur2, e_ohm, e_pol, e_dc, stored


def _converter_energies(e_dc, p_ac, eta_ac, eta_dc):
    """The converter part of a step's energies (J): (e_mid, e_ac), the
    energy between the two converters and on the grid side of the
    cluster, from the battery port energy e_dc and _advance's
    efficiencies. With signed energies the stage losses are the
    differences e_ac - e_mid and e_mid - e_dc in both directions, so the
    ledger closes exactly."""
    charging = p_ac >= 0.0
    e_mid = e_dc * eta_dc
    np.divide(e_dc, eta_dc, out=e_mid, where=charging)
    e_ac = e_mid * eta_ac
    np.divide(e_mid, eta_ac, out=e_ac, where=charging)
    return e_mid, e_ac


def _step_arrays(soc, ipol, p_ac, pp: _ParamArrays):
    """Advance cluster states one step of pp.dt under commanded AC powers
    (_advance), then take the step's energies: the battery part
    (_battery_energies), the converter part (_converter_energies) and the
    steady/transient split of the battery loss.

    The inputs are float arrays that broadcast against each other along
    the last (cluster) axis, p_ac at the full broadcast shape, so a batch
    of candidate allocations can be evaluated in one call.

    Returns (soc, ipol, current, truncated, E): next state, terminal
    current (A), the SoC-truncation flag, and the energy stack E of shape
    (9,) + broadcast shape, in Wh. Its rows, indexed by the module
    constants of the same names, are E_AC (grid side of the cluster),
    STORED, ACDC, DCDC, OHMIC, POLARIZATION, the steady/transient battery
    loss split SS and TS, and E_DC (battery port). Each row is its joule
    value times WH_PER_J.
    """
    soc_new, ipol_new, current, truncated, eta_ac, eta_dc = _advance(
        soc, ipol, p_ac, pp)
    r_pol_dt, r_sum_dt = pp.step_consts[5:]
    cur2, e_ohm, e_pol, e_dc, stored = _battery_energies(
        _soc_start(soc), ipol, soc_new, current, pp)
    e_mid, e_ac = _converter_energies(e_dc, p_ac, eta_ac, eta_dc)
    E = np.stack((e_ac, stored, e_ac - e_mid, e_mid - e_dc, e_ohm, e_pol,
                  cur2 * r_sum_dt, e_pol - cur2 * r_pol_dt, e_dc))
    E *= WH_PER_J
    return soc_new, ipol_new, current, truncated, E


def _scalar_kernel(pp: _ParamArrays):
    """The scalar twin of _advance's state half: one cluster on Python
    floats, for a plant whose clusters all share their constants
    (pp.identical, or one cluster). It takes the commanded DC power from
    _command, so the efficiencies have one formula, and does the current
    solve and SoC clamp, then the next state. The energies come from
    _step_arrays alone (see replay_steps).

    An operation-for-operation transcription of that half of _advance on
    the same constants, np.minimum(x, y) / np.maximum(x, y) written as
    x if x < y / x > y else y. numpy leaves open which operand a tie
    returns; only -0.0 against +0.0 (a -0.0 current at a SoC bound) ties
    with different bits.
    Bit equality with the array kernel is what test_matches_scalar_twin and
    TestUniformFastPathProperty check on the numpy build the tests run on.
    Returns step(soc, ipol, p_dc) -> (soc', ipol').
    """
    b0, b1, b2, b3 = pp.ocv_b
    decay, coulomb = map(float, pp.step_consts[:2])
    n_series, r_pol, r_ohm4 = pp.n_series, pp.r_pol, pp.r_ohm4
    soc_min, soc_max = pp.soc_min, pp.soc_max
    sqrt = math.sqrt

    def step(soc: float, ipol: float, p_dc: float) -> tuple[float, float]:
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
    for a uniform plant's). Writes the ledger rows (E_AC ... TS) of the
    steps' energy stacks summed over the c clusters into totals, (E_DC, n)
    in Wh; cluster 0's battery port energies into e_dc0, (n,); and whether
    any cluster hit a SoC bound into truncated, (n,). Each kernel call
    takes REPLAY_CLUSTER_STEPS cluster-steps at most."""
    n, c = p_ac.shape
    chunk = max(REPLAY_CLUSTER_STEPS // c, 1)
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        *_, trunc, E = _step_arrays(soc[rows], ipol[rows], p_ac[rows], pp)
        totals[:, rows] = E[:E_DC].sum(axis=-1)
        e_dc0[rows] = E[E_DC, :, 0]
        truncated[rows] = trunc.any(axis=-1)


def finite_float(value) -> float | None:
    """value as a float if it is an int or float, not a bool, of magnitude
    at most the largest finite float; otherwise None. The one number rule
    of config fields, PsoParams and Plant.restore."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= _FLOAT_MAX):    # exact for ints of any size
        return float(value)
    return None


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

    def transformer_split(self, p_sys_w):
        """(p_net, tf_w): the total power the clusters exchange for
        system-level commands p_sys_w, and the transformer loss each
        carries. Takes an array, or a float or int split on Python floats
        (_split). Raises transformer_loss's DomainError if a command
        overloads the transformer.

        p_net is less than p_sys when charging (never below 0) and more in
        magnitude when discharging (the clusters also feed the loss); a
        command of 0 W, either sign, gives +0.0.
        """
        return self._split(p_sys_w, masked=False)[:2]

    def _split(self, p_sys_w, masked: bool = True):
        """transformer_split, raising nothing unless masked is false: (p_net,
        tf_w, ok), ok false where a command overloads the transformer,
        p_net and tf_w meaning nothing there (transformer_loss, masked). A
        float takes the same operations on Python floats, max for
        np.maximum."""
        one = isinstance(p_sys_w, (float, int))
        p = p_sys_w if one else np.asarray(p_sys_w, dtype=float)
        tf = transformer_loss(abs(p) / self.cfg.transformer.rated_power_w,
                              self.cfg.transformer, masked=masked)
        tf_w, ok = tf if masked else (tf, True)
        p_net = p - tf_w
        if one:
            return (p_net if p < 0.0 else max(p_net, 0.0)), tf_w, ok
        return np.where(p < 0.0, p_net, np.maximum(p_net, 0.0)), tf_w, ok

    def net_cluster_power(self, p_sys_w: float) -> float:
        """Total power the clusters exchange for a system-level command."""
        return self.transformer_split(p_sys_w)[0]

    def _shares(self, alloc) -> np.ndarray:
        """alloc as a float array whose last axis is one share per cluster."""
        k = np.asarray(alloc, dtype=float)
        if k.ndim == 0 or k.shape[-1] != self.params.m:
            raise DomainError("allocation length does not match cluster count")
        return k

    def _cluster_targets(self, p_net_w: float, alloc: np.ndarray) -> np.ndarray:
        """Per-cluster AC targets alloc * p_net_w, checked against ratings."""
        targets = self._shares(alloc) * p_net_w
        over = np.abs(targets) > self.params.rated_tol_w
        if over.any():
            j = int(np.argmax(over))
            raise DomainError(
                f"allocation infeasible: cluster {j} commanded "
                f"{targets[j]:.1f} W above its {self.params.rated_w[j]:.0f} W rating")
        return targets

    def step(self, p_net_w: float, alloc: np.ndarray) -> np.ndarray:
        """Advance soc and ipol one step (_advance), the clusters exchanging
        p_net_w (transformer_split(p_sys)[0]) in shares alloc, and return
        their AC commands alloc * p_net_w (W). Computes no energies:
        replay_steps gives them from the step's start state and these
        commands, and book books them."""
        targets = self._cluster_targets(p_net_w, alloc)
        self.soc, self.ipol = _advance(self.soc, self.ipol, targets,
                                       self.params)[:2]
        return targets

    def book(self, totals: np.ndarray, tf_w: np.ndarray) -> dict:
        """Book n steps: the columns of totals, (E_DC, n) ledger rows as
        replay_steps writes them, with transformer loss powers tf_w (W).
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

    def scorer(self, p_net_w: float):
        """evaluate_allocations(p_net_w, K) as a function of K alone, for
        a caller that scores many swarms on one state and one p_net_w
        (pso_allocate, grid_search_allocation). The swarm is scored on
        state terms taken once per call: the kernel terms that the
        plant's state alone decides (_state_terms) are taken here, and
        each swarm is one evaluate_allocations call on them. A scorer
        holds until the plant is stepped or its state is set."""
        terms = _state_terms(self.soc, self.ipol, self.params)
        return lambda K: self.evaluate_allocations(p_net_w, K, terms)

    def evaluate_allocations(self, p_net_w: float, K: np.ndarray,
                             terms=None) -> np.ndarray:
        """Fitness of candidate allocations without mutating plant state.

        K has shape (n_candidates, m), or (m,) for one candidate; a width
        other than the cluster count is a DomainError. Each row shares
        p_net_w, the net_cluster_power of the system command. Charging: net
        battery energy stored (Wh). Discharging: net AC energy delivered,
        counting the battery energy expended against it (so for a fixed
        delivery target the least lossy split wins, while under-delivering
        through SoC truncation is weighted twice and never attractive).
        Candidates commanding any cluster above its rating score -inf. The
        shared transformer term is constant across candidates and omitted.

        The rows are scored on _step_arrays' own formulas, taking only what
        the fitness reads: the command half (each distinct converter fit
        evaluated once, see _command), the current solve and next SoC, the
        battery part of the energies and, when discharging, the converter
        part; not the next ipol nor the truncation flag. Each
        energy row is scaled to Wh before its sum over clusters, as in the
        energy stack, so a score is bit for bit the one the stack's STORED
        and E_AC rows give. terms are the plant state's _state_terms as
        scorer takes them; without them the call takes its own, so that
        it is one use of scorer(p_net_w).
        """
        K = np.atleast_2d(self._shares(K))
        targets = K * p_net_w
        pp = self.params
        rated = pp.rated
        infeasible = (np.abs(targets) > pp.rated_tol_w).any(axis=-1)
        # clamp to the rating so infeasible rows still step (scored -inf)
        safe_targets = np.minimum(targets, rated, out=targets)
        np.maximum(safe_targets, -rated, out=safe_targets)
        current_terms, start = terms or _state_terms(self.soc, self.ipol, pp)
        eta_ac, eta_dc, p_dc = _command(safe_targets, pp)
        soc_new, current, _ = _battery_step(self.soc, current_terms, p_dc, pp)
        *_, e_dc, stored = _battery_energies(start, self.ipol, soc_new,
                                             current, pp)
        stored *= WH_PER_J
        if p_net_w >= 0:
            fitness = stored.sum(axis=-1)
        else:
            e_ac = _converter_energies(e_dc, safe_targets, eta_ac, eta_dc)[1]
            e_ac *= WH_PER_J
            delivered = -e_ac.sum(axis=-1)
            drawn = -stored.sum(axis=-1)
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
        """Take the state of a snapshot(). A missing entry or a value outside
        the state's domain is rejected by its field, e.g. `snapshot.soc[0]`:
        SoC outside [soc_min, soc_max] (give or take SOC_GATE_TOL: a
        truncated step can land an ulp past the bound), an i_pol,
        t_elapsed_s (>= 0) or cumulative_wh entry that is not a finite
        number, and a missing or unknown cumulative_wh key."""
        missing = [k for k in self.snapshot() if k not in snap]
        if missing:
            raise DomainError("missing entry", field=f"snapshot.{missing[0]}")
        state = {}
        for key in ("soc", "i_pol"):
            try:
                state[key] = np.asarray(snap[key], dtype=float)
            except (TypeError, ValueError):
                raise DomainError("must be a list of numbers",
                                  field=f"snapshot.{key}") from None
        soc, ipol = state["soc"], state["i_pol"]
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
        t_elapsed = finite_float(snap["t_elapsed_s"])
        if t_elapsed is None or t_elapsed < 0.0:
            raise DomainError("elapsed time must be finite and non-negative",
                              field="snapshot.t_elapsed_s")
        cumulative = snap["cumulative_wh"]
        if not isinstance(cumulative, dict):
            raise DomainError("must be an object", field="snapshot.cumulative_wh")
        keys = [f.name for f in fields(LossBreakdown)]
        ledger = {k: finite_float(cumulative.get(k)) for k in keys}
        bad = ([k for k in keys if ledger[k] is None]
               + [k for k in cumulative if k not in keys])
        if bad:
            raise DomainError("ledger entries are the LossBreakdown fields, "
                              "each a finite number",
                              field=f"snapshot.cumulative_wh.{bad[0]}")
        self.soc = soc
        self.ipol = ipol
        self.t_elapsed = t_elapsed
        self.cumulative = LossBreakdown(**ledger)

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    def restore_json(self, text: str) -> None:
        self.restore(json.loads(text))


def uniform_plant_config(n_clusters: int, cluster: ClusterParams | None = None,
                         **kwargs) -> PlantConfig:
    """Convenience constructor for a plant of identical clusters."""
    cluster = cluster or ClusterParams()
    return PlantConfig(clusters=(cluster,) * n_clusters, **kwargs)
