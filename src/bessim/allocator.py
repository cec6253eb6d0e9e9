"""Per-instant cluster power allocation.

Provides the balanced baseline split and a particle-swarm optimizer over
the simplex of allocation coefficients. Fitness is a one-step evaluation
of the native plant model: net battery energy stored when charging, AC
energy delivered when discharging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoCapacityError
from .plant import Plant, finite_float


@dataclass(frozen=True)
class PsoParams:
    inertia: float = 0.85
    cognitive: float = 0.4
    social: float = 0.5
    particles: int = 30
    max_iterations: int = 50
    velocity_bound: float = 1.0
    init_spread: float = 0.1
    rng_seed: int = 0

    def __post_init__(self):
        rules = (
            ("inertia", 0.0 < self.inertia < 1.0, "lie in (0, 1)"),
            ("cognitive", self.cognitive >= 0.0, "be >= 0"),
            ("social", self.social >= 0.0, "be >= 0"),
            ("particles", self.particles >= 2, "be at least 2"),
            ("max_iterations", self.max_iterations >= 0, "be >= 0"),
            ("velocity_bound", self.velocity_bound > 0.0, "be > 0"),
            ("init_spread", self.init_spread >= 0.0, "be >= 0"),
            ("rng_seed", self.rng_seed >= 0, "be >= 0"),
        )
        for name, ok, rule in rules:
            value = getattr(self, name)
            if not ok or finite_float(value) is None:
                raise DomainError(f"{name} must {rule} and be finite, got {value!r}",
                                  field=name)


def balanced_allocation(blocked: np.ndarray) -> np.ndarray:
    """Equal coefficients over unblocked clusters, zero over blocked ones:
    the balanced split, free / n_free."""
    free = ~np.asarray(blocked, dtype=bool)
    n_free = np.count_nonzero(free)
    if n_free == 0:
        raise NoCapacityError("every cluster is blocked by a SoC bound")
    return free / n_free


def repair(k_raw: np.ndarray, blocked: np.ndarray,
           max_share: np.ndarray | None = None) -> np.ndarray:
    """Project raw coefficients onto the feasible allocation set.

    k_raw has shape (..., m): one row of m coefficients, or a stack of rows
    (such as a whole swarm) projected at once; blocked (m,) and max_share
    (m,) apply to every row, and each row gets the same result as it would
    alone. Per row: clamp to [0,1], zero blocked entries, renormalize to
    sum 1; an all-zero row falls back to the balanced split. When max_share
    (per-cluster upper bound on k, from the power rating) is given, entries
    are capped and the excess redistributed over uncapped clusters.
    """
    blocked = np.asarray(blocked, dtype=bool)
    k = np.asarray(k_raw, dtype=float).clip(0.0, 1.0)
    np.copyto(k, 0.0, where=blocked)
    total = k.sum(axis=-1, keepdims=True)
    # entries are non-negative, so a row sums to 0 exactly when it is all
    # zero; count_nonzero is the cheapest test for the common single row
    if np.count_nonzero(total) == total.size:
        k = k / total
    else:
        empty = total == 0.0
        k = np.where(empty, balanced_allocation(blocked),
                     k / np.where(empty, 1.0, total))
    if max_share is not None:
        cap = np.where(blocked, 0.0, np.asarray(max_share, dtype=float))
        if cap.sum() < 1.0 - 1e-9:
            raise NoCapacityError(
                "per-cluster power limits cannot absorb the system power")
        cap_tol = cap + 1e-15
        for _ in range(k.shape[-1]):
            over = k > cap_tol
            if not np.count_nonzero(over):
                break
            excess = np.where(over, k - cap, 0.0).sum(axis=-1, keepdims=True)
            k = np.where(over, cap, k)
            room = ~over & ~blocked & (k < cap)
            # every cluster with room weighs at least 1e-12, so a row with
            # no room left has weight sum 0 and keeps its capped values
            weights = np.where(room, np.maximum(k, 1e-12), 0.0)
            wsum = weights.sum(axis=-1, keepdims=True)
            k = k + excess * weights / np.maximum(wsum, 1e-30)
        k = np.minimum(k, cap)
    return k


def fitness(k: np.ndarray, p_sys_w: float, plant: Plant) -> float:
    """One-step plant evaluation of an allocation (Wh, larger is better).

    Charging: net battery energy stored. Discharging: net AC energy
    delivered, weighed against the battery energy drawn for it.
    Allocations driving any cluster above its power rating score -inf.
    """
    p_net = plant.net_cluster_power(p_sys_w)
    return float(plant.evaluate_allocations(p_net, k)[0])


def pso_allocate(p_sys_w: float, plant: Plant,
                 params: PsoParams) -> tuple[np.ndarray, np.ndarray]:
    """Optimize the per-cluster split of p_sys with a particle swarm.

    The swarm is anchored at the balanced allocation (particle 0 is exactly
    balanced, the rest are seeded perturbations of it), velocities are
    clamped to +-velocity_bound, and the whole swarm is repaired to the
    feasible set and scored (Plant.evaluate_allocations) in one batched
    call each per iteration. The swarm is scored on state terms taken once
    per call: one Plant.scorer serves all max_iterations + 1 swarms, and
    each distinct converter fit is evaluated once per swarm. Each
    iteration draws both random factors in one rng.random call, the
    stream of two uniform draws, and updates the velocities in place.
    Returns (k, trace):
    the global best allocation, shape (m,), and the per-iteration
    best-fitness trace (non-decreasing).
    """
    m = plant.n_clusters
    blocked = plant.blocked_mask(p_sys_w)
    base = balanced_allocation(blocked)
    if m == 1:
        return base, np.array([fitness(base, p_sys_w, plant)])

    max_share = None
    p_net = plant.net_cluster_power(p_sys_w)
    if p_net != 0.0:
        # cap against both the commanded cluster power and the system-side
        # share so neither view of a cluster's load exceeds its rating
        max_share = plant.params.rated_w / max(abs(p_net), abs(p_sys_w))
    base = repair(base, blocked, max_share)

    rng = np.random.default_rng(params.rng_seed)
    n = params.particles
    s = params.init_spread
    pos = np.empty((n, m))
    pos[0] = base
    pos[1:] = repair(base + rng.uniform(-s, s, (n - 1, m)), blocked, max_share)
    vel = np.zeros((n, m))

    score = plant.scorer(p_net)
    fit = score(pos)
    pbest = pos.copy()
    pbest_fit = fit.copy()
    g = int(np.argmax(fit))
    gbest = pos[g].copy()
    gbest_fit = float(fit[g])
    trace = np.empty(params.max_iterations + 1)
    trace[0] = gbest_fit

    vb = params.velocity_bound
    pull = np.empty((n, m))     # pbest - pos, then gbest - pos
    for it in range(params.max_iterations):
        # vel = inertia vel + cognitive r1 (pbest - pos) + social r2 (gbest
        # - pos), in place, operation for operation
        r1, r2 = rng.random((2, n, m))
        vel *= params.inertia
        r1 *= params.cognitive
        r1 *= np.subtract(pbest, pos, out=pull)
        vel += r1
        r2 *= params.social
        r2 *= np.subtract(gbest, pos, out=pull)
        vel += r2
        np.clip(vel, -vb, vb, out=vel)
        pos = repair(pos + vel, blocked, max_share)
        fit = score(pos)
        better = fit > pbest_fit
        pbest[better] = pos[better]
        pbest_fit[better] = fit[better]
        g = int(np.argmax(pbest_fit))
        if pbest_fit[g] > gbest_fit:
            gbest_fit = float(pbest_fit[g])
            gbest = pbest[g].copy()
        trace[it + 1] = gbest_fit

    return gbest, trace


def grid_search_allocation(p_sys_w: float, plant: Plant,
                           resolution: float = 1e-3) -> tuple[np.ndarray, float]:
    """Exhaustive simplex grid search for small cluster counts (m <= 3).

    Independent check for the swarm optimizer; not meant for production m.
    """
    m = plant.n_clusters
    if m > 3:
        raise DomainError("grid search supported only for m <= 3")
    steps = int(round(1.0 / resolution))
    if m == 1:
        k = np.ones((1, 1))
    elif m == 2:
        k1 = np.linspace(0.0, 1.0, steps + 1)
        k = np.stack([k1, 1.0 - k1], axis=1)
    else:
        pts = []
        for i in range(steps + 1):
            a = i * resolution
            b = np.linspace(0.0, 1.0 - a, steps - i + 1)
            pts.append(np.stack([np.full_like(b, a), b, 1.0 - a - b], axis=1))
        k = np.concatenate(pts)
    blocked = plant.blocked_mask(p_sys_w)
    k = k[~np.any(k[:, blocked] > 0, axis=1)] if np.any(blocked) else k
    score = plant.scorer(plant.net_cluster_power(p_sys_w))
    fits = np.empty(k.shape[0])
    chunk = 200_000
    for i in range(0, k.shape[0], chunk):
        fits[i:i + chunk] = score(k[i:i + chunk])
    best = int(np.argmax(fits))
    return k[best], float(fits[best])

