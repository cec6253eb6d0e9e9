"""Per-component loss models.

Pure functions for every loss source in the storage plant: transformer
core/copper losses, converter efficiency polynomial, battery open-circuit
voltage, and the steady/transient split of battery resistive loss driven
by a first-order RC polarization branch. The plant's step kernel imports
its formulas from here: _horner, _efficiency and _rc_decay.

Sign convention (global): positive current and power charge the battery,
discharge is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# Floor applied to the converter efficiency polynomial; the quartic fit is
# only trusted on the sampled load range and must never reach zero.
PCS_EFFICIENCY_FLOOR = 1e-3
# Highest transformer load factor (an overload) that transformer_loss takes
_TRANSFORMER_OVERLOAD = 1.2


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
    """Converter efficiency at load factors lam (array), kept in [floor, 1]."""
    eta = _horner(coeffs, lam)
    np.maximum(eta, PCS_EFFICIENCY_FLOOR, out=eta)
    return np.minimum(eta, 1.0, out=eta)


def _rc_decay(dt, tau):
    """Decay factor exp(-dt / tau) of the RC branch over a step of dt s."""
    return np.exp(-dt / tau)


@dataclass(frozen=True)
class TransformerParams:
    """No-load (core) and rated load (copper) loss of the station transformer.

    Numeric values are installation specific; the shipped defaults are
    illustrative figures for a 6.3 MVA unit, not measured data.
    """

    no_load_loss_w: float = 5_000.0
    rated_load_loss_w: float = 35_000.0
    rated_power_w: float = 6_300_000.0

    def __post_init__(self):
        for name in ("no_load_loss_w", "rated_load_loss_w", "rated_power_w"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be strictly positive",
                                  field=name)
        if self.rated_load_loss_w >= self.rated_power_w:
            raise DomainError("rated_load_loss_w must be below rated_power_w",
                              field="rated_load_loss_w")


@dataclass(frozen=True)
class PcsEfficiencyCoeffs:
    """Coefficients a0..a4 of the converter efficiency quartic in load factor;
    the default is the fit for a 50 kW PCS stage (dimensionless)."""

    a: tuple[float, float, float, float, float] = (
        0.7868, 0.7955, -2.073, 2.137, -0.8137)

    def __post_init__(self):
        if len(self.a) != 5:
            raise DomainError("exactly five coefficients a0..a4 required")
        lam = np.linspace(1e-6, 1.0, 2001)
        eta = _horner(self.a, lam)
        if np.any(eta <= 0.0) or np.any(eta > 1.0):
            raise DomainError(
                "efficiency polynomial must lie in (0, 1] for load factors in (0, 1]"
            )


@dataclass(frozen=True)
class OcvCoeffs:
    """Coefficients b0..b3 of the cubic open-circuit-voltage fit in SoC (V);
    the default is the fit for the reference LFP cell."""

    b: tuple[float, float, float, float] = (2.484, 2.608, -5.252, 3.603)

    def __post_init__(self):
        if len(self.b) != 4:
            raise DomainError("exactly four coefficients b0..b3 required")
        soc = np.linspace(0.0, 1.0, 2001)
        v = _horner(self.b, soc)
        if np.any(v <= 0.0):
            raise DomainError("OCV must be strictly positive on [0, 1]")
        if np.any(np.diff(v) < -1e-12):
            raise DomainError("OCV must be monotonically non-decreasing on [0, 1]")


@dataclass(frozen=True)
class CellParams:
    """Electrical parameters of one cell: ohmic + RC polarization branch;
    the defaults are the reference cell's."""

    r_ohm: float = 0.0232       # ohm
    r_pol: float = 0.0185       # ohm
    c_pol: float = 12091.0      # farad
    capacity_ah: float = 12.5   # amp hour
    ocv: OcvCoeffs = field(default_factory=OcvCoeffs)

    def __post_init__(self):
        for name in ("r_ohm", "r_pol", "c_pol", "capacity_ah"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be strictly positive",
                                  field=name)

    @property
    def time_constant_s(self) -> float:
        return self.r_pol * self.c_pol


@dataclass(frozen=True)
class RcState:
    """Polarization branch current (A, positive = charging) and elapsed time."""

    i_pol: float = 0.0
    t_elapsed: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.i_pol):
            raise DomainError("i_pol must be finite")


def transformer_loss(load_factor, p: TransformerParams, *,
                     masked: bool = False):
    """Transformer loss power (W) at load factors lam: P_fe + lam^2 * P_k.

    Takes an array of load factors, or a float or int, computed on Python
    floats (ok a bool). Accepts a modest overload up to lam = 1.2, and
    raises if any load factor is outside [0, 1.2]. With masked=True it
    raises nothing and returns (loss, ok), ok false where lam is outside
    that domain and the loss means nothing.
    """
    one = isinstance(load_factor, (float, int))
    lam = load_factor if one else np.asarray(load_factor, dtype=float)
    loss = p.no_load_loss_w + lam * lam * p.rated_load_loss_w
    ok = (lam >= 0.0) & (lam <= _TRANSFORMER_OVERLOAD)
    if masked:
        return loss, ok
    if not (ok if one else ok.all()):
        if not (lam >= 0.0 if one else (lam >= 0.0).all()):
            raise DomainError("load_factor must be non-negative")
        raise DomainError(f"load_factor above the {_TRANSFORMER_OVERLOAD} "
                          "overload tolerance")
    return loss


def pcs_efficiency(load_factor, c: PcsEfficiencyCoeffs):
    """Converter efficiency at a load factor in [0, 1].

    Evaluates the quartic fit and clamps the result into
    [PCS_EFFICIENCY_FLOOR, 1]. Accepts scalars or numpy arrays.
    """
    lam = np.atleast_1d(np.asarray(load_factor, dtype=float))
    if not (np.all(lam >= 0) and np.all(lam <= 1)):
        raise DomainError("load_factor must lie in [0, 1]")
    eta = _efficiency(c.a, lam)
    return float(eta[0]) if np.ndim(load_factor) == 0 else eta


def open_circuit_voltage(soc, c: OcvCoeffs):
    """Cell open-circuit voltage (V) at a SoC in [0, 1]."""
    s = np.asarray(soc, dtype=float)
    if not (np.all(s >= 0) and np.all(s <= 1)):
        raise DomainError("soc must lie in [0, 1]")
    v = _horner(c.b, s)
    return float(v) if np.ndim(soc) == 0 else v


def step_polarization(state: RcState, terminal_current: float, dt: float,
                      p: CellParams) -> RcState:
    """Advance the RC branch one step under constant terminal current.

    Exact exponential integrator for the first-order branch, the kernel's:
    i_pol' = (i_pol - I) * _rc_decay(dt, r_pol * c_pol) + I.
    """
    if not (dt >= 0):
        raise DomainError("dt must be non-negative")
    decay = _rc_decay(dt, p.time_constant_s)
    i_new = float((state.i_pol - terminal_current) * decay + terminal_current)
    return RcState(i_pol=i_new, t_elapsed=state.t_elapsed + dt)


def steady_state_loss(terminal_current: float, p: CellParams) -> float:
    """Steady-state loss power (W): I^2 * (R_ohm + R_pol). Always >= 0."""
    return terminal_current * terminal_current * (p.r_ohm + p.r_pol)


def transient_loss(state: RcState, terminal_current: float, p: CellParams) -> float:
    """Transient loss power (W): R_pol * (i_pol^2 - I^2). May be negative.

    Zero once the branch is fully polarized (i_pol == I).
    """
    return p.r_pol * (state.i_pol * state.i_pol
                      - terminal_current * terminal_current)


def total_battery_loss(state: RcState, terminal_current: float, p: CellParams) -> float:
    """Total battery loss power (W): R_ohm * I^2 + R_pol * i_pol^2.

    Equals steady_state_loss + transient_loss identically.
    """
    return (p.r_ohm * terminal_current * terminal_current
            + p.r_pol * state.i_pol * state.i_pol)
