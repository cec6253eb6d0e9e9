"""Timing wrappers around bessim's public functions, installed from outside.

The program under ``src/`` carries no instrumentation. A ``Tracer``
replaces each traced function with a wrapper that records one span per
call: name, start, end and the index of the enclosing span. Because
``from .x import f`` binds ``f`` into the importing module at import time,
every ``bessim`` module attribute bound to the original function object is
replaced, not only the one in the defining module (``bessim.simulate.repair``
as well as ``bessim.allocator.repair``, ``bessim.cli.run_simulation`` as
well as ``bessim.simulate.run_simulation``). Methods are replaced on their
class.

Self time is a span's duration minus the durations of its direct child
spans. Spans stay in memory until the pass ends; nothing is written while
a workload runs.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

from checks import ledger_residual_max

PSO = "allocator.pso_allocate"


def _after_run_simulation(tracer, idx, args, kwargs, result):
    tracer.add("plant.truncated_steps", int(np.count_nonzero(result.truncated)))
    tracer.peak("plant.ledger_residual_max", ledger_residual_max(result))


def _after_plan_horizon(tracer, idx, args, kwargs, result):
    tracer.add("scheduler.infeasible_cycles",
               sum(not c.feasible for plan in result for c in plan.cycles))


def _after_evaluate(tracer, idx, args, kwargs, result):
    K = args[2] if len(args) > 2 else kwargs["K"]
    tracer.add("plant.Plant.evaluate_allocations.candidates",
               np.atleast_2d(K).shape[0])
    # The first evaluation inside a pso_allocate call scores the initial
    # swarm, whose particle 0 is the balanced anchor.
    parent = tracer.spans[idx][3]
    if parent >= 0 and tracer.spans[parent][0] == PSO:
        tracer.anchors.setdefault(parent, float(result[0]))


def _after_pso(tracer, idx, args, kwargs, result):
    trace = result[1]
    best = trace[-1]
    tracer.add("allocator.pso_iters_to_best.total",
               int(np.flatnonzero(trace >= best)[0]))
    anchor = tracer.anchors.pop(idx, None)
    if anchor is not None:
        tracer.add("allocator.pso_improved.total", int(best > anchor))


def _after_csv_read(tracer, idx, args, kwargs, result):
    tracer.add("profiles.load_profile_from_csv.rows", result.n_samples)


# (traced name, hook run after each call). The name is "<module>.<attr>"
# relative to the bessim package.
SPANS = (
    ("cli.main", None),
    ("config.load_config", None),
    ("simulate.run_simulation", _after_run_simulation),
    ("simulate.plan_horizon", _after_plan_horizon),
    ("plant.Plant.step", None),
    ("plant.Plant.step_uniform", None),
    ("plant.Plant.evaluate_allocations", _after_evaluate),
    ("allocator.repair", None),
    (PSO, _after_pso),
    ("scheduler.correct_references_improved", None),
    ("scheduler.correct_references_original", None),
    ("scheduler.replay_plan", None),
    ("scheduler.compute_metrics", None),
    ("profiles.synth_load", None),
    ("profiles.load_profile_from_csv", _after_csv_read),
    ("profiles.load_profile_to_csv", None),
    ("analysis.component_ledger_report", None),
    ("analysis.efficiency_scatter", None),
    ("analysis.scatter_csv", None),
    ("losses.transformer_loss", None),
)
# Counted only: no span, so no clock reads on these calls.
COUNTED = ("allocator.balanced_allocation",)


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self.anchors: dict[int, float] = {}
        self.missing: list[str] = []    # traced names the program lacks
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def _span_wrapper(self, name, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, idx, args, kwargs, result)
            return result
        return traced

    def _count_wrapper(self, name, fn):
        counters = self.counters
        key = name + ".calls"

        def counted(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, name: str, make_wrapper) -> None:
        module_name, *path = name.split(".")
        owner = importlib.import_module("bessim." + module_name)
        if len(path) == 2:                       # a method: patch the class
            cls = getattr(owner, path[0], None)
            original = vars(cls).get(path[1]) if cls is not None else None
            if original is None:
                self.missing.append(name)
                return
            self._undo.append((cls, path[1], original))
            setattr(cls, path[1], make_wrapper(original))
            return
        original = getattr(owner, path[0], None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bessim"
                                   or mod_name.startswith("bessim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def __enter__(self) -> "Tracer":
        try:
            for name, after in SPANS:
                self._patch(name, lambda fn, n=name, a=after:
                            self._span_wrapper(n, fn, a))
            for name in COUNTED:
                self._patch(name, lambda fn, n=name: self._count_wrapper(n, fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total and self seconds, p50/p99 in us."""
        if not self.spans:
            return {}
        names = [s[0] for s in self.spans]
        dur = np.array([s[2] - s[1] for s in self.spans])
        parent = np.array([s[3] for s in self.spans])
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        by_name: dict[str, list[int]] = {}
        for i, n in enumerate(names):
            by_name.setdefault(n, []).append(i)
        stats = {}
        for n, idx in by_name.items():
            d = dur[idx]
            p50, p99 = np.percentile(d, [50.0, 99.0]) * 1e6
            stats[n] = {"calls": len(idx), "total_s": float(d.sum()),
                        "self_s": float(self_time[idx].sum()),
                        "p50_us": float(p50), "p99_us": float(p99)}
        return stats

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure this pass measured, by metric name."""
        stats = self.span_stats()
        c = self.counters
        out: dict[str, float] = {}
        for n, st in stats.items():
            for stat in ("calls", "self_s", "p50_us", "p99_us"):
                out[f"{n}.{stat}"] = st[stat]
        out.update({k: v for k, v in c.items()
                    if not k.endswith((".total", ".rows"))})
        evals = "plant.Plant.evaluate_allocations"
        if evals in stats:
            out[f"{evals}.us_per_candidate"] = (
                stats[evals]["total_s"] * 1e6 / c[f"{evals}.candidates"])
        if PSO in stats:
            calls = stats[PSO]["calls"]
            out["allocator.pso_iters_to_best"] = (
                c["allocator.pso_iters_to_best.total"] / calls)
            out["allocator.pso_improved_ratio"] = (
                c.get("allocator.pso_improved.total", 0) / calls)
        reader = "profiles.load_profile_from_csv"
        if reader in stats:
            out[f"{reader}.rows_per_s"] = (
                c[f"{reader}.rows"] / stats[reader]["total_s"])
        return out
