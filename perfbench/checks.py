"""Output checks applied to every benchmark run.

Each check returns a list of error strings; an empty list means the run's
output is correct. Tolerances come from ``workloads.json``.
"""

from __future__ import annotations

import numpy as np


def ledger_residual_max(result) -> float:
    """Worst per-step relative residual of grid = stored + sum of losses."""
    losses = (result.transformer_wh + result.acdc_wh + result.dcdc_wh
              + result.ohmic_wh + result.polarization_wh)
    residual = result.grid_wh - result.stored_wh - losses
    scale = np.maximum.reduce([np.abs(result.grid_wh), np.abs(result.stored_wh),
                               losses, np.full(losses.shape, 1e-30)])
    return float(np.max(np.abs(residual) / scale))


def check_ledger(result, tol: float) -> list[str]:
    worst = ledger_residual_max(result)
    if not worst <= tol:
        return [f"ledger does not close: worst step residual {worst:.3e} "
                f"relative > {tol:g}"]
    return []


def check_allocations(result, sum_tol: float) -> list[str]:
    """Every recorded row sums to 1, lies in [0, 1] and respects ratings."""
    K = result.alloc_matrix
    if K is None or K.shape != (result.n_steps, result.plant.n_clusters):
        return ["allocation matrix missing or misshapen"]
    errors = []
    worst_sum = float(np.max(np.abs(K.sum(axis=1) - 1.0)))
    if not worst_sum <= sum_tol:
        errors.append(f"allocation row sums off by {worst_sum:.3e}")
    if np.any(K < 0.0) or np.any(K > 1.0):
        errors.append("allocation coefficient outside [0, 1]")
    plant = result.plant
    p_net = np.array([plant.net_cluster_power(p) for p in result.demand_w])
    over = np.abs(K * p_net[:, None]) > plant.params.rated_w * (1.0 + 1e-9)
    if np.any(over):
        step, cluster = np.argwhere(over)[0]
        errors.append(f"step {step}: cluster {cluster} allocated above its rating")
    return errors


def check_close(values: dict[str, float], expected: dict[str, float],
                rel_tol: float) -> list[str]:
    """Named output values against expected ones, within rel_tol."""
    errors = []
    for key, want in expected.items():
        got = values.get(key)
        if got is None:
            errors.append(f"{key} missing from the output")
        elif not abs(got - want) <= rel_tol * max(abs(got), abs(want)):
            errors.append(f"{key} = {got!r}, expected {want!r} "
                          f"(relative tolerance {rel_tol:g})")
    return errors
