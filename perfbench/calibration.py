"""A fixed reference computation that measures how fast the machine is now.

On a shared virtual machine the speed of the same code drifts by a quarter
or more between half-minute windows, so raw wall times of runs made at
different moments cannot be compared within any useful bound. The kernel
below mixes the kinds of work the workloads do (interpreter loops, numpy
calls on 100-element and 30x100 arrays, number formatting and parsing)
and uses no bessim code, so no change to the program can move it. Timing
it right before and after each run and dividing gives a run time in
units of the kernel, which follows the machine's drift.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3


def kernel_s() -> float:
    """Wall seconds of one pass of the reference computation."""
    v = np.linspace(0.1, 1.0, 100)
    M = np.linspace(0.1, 1.0, 3000).reshape(30, 100)
    acc = 0.0
    t = time.perf_counter()
    for _ in range(300):
        d = {}
        for j in range(30):
            d[j] = j * 0.5 + acc * 1e-9
        acc += sum(d.values())
        y = np.clip(v * 1.0001 + 0.5, 0.2, 1.2)
        acc += float(np.sum(np.sqrt(y)))
        Z = np.where(M > 0.5, M * y, M / y)
        acc += float(Z.sum(axis=-1).max())
        line = ",".join(f"{x:.6f}" for x in v[:10])
        acc += sum(float(x) for x in line.split(","))
    return time.perf_counter() - t


def samples() -> list[float]:
    return [kernel_s() for _ in range(REPEATS)]


def run_in_units(elapsed_s: float, before: list[float],
                 after: list[float]) -> float:
    """A run's wall time in units of the kernel timed around it."""
    return elapsed_s / statistics.median(before + after)
