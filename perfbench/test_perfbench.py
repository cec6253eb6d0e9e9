"""Tests of the benchmark itself, on shortened horizons.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = workloads.load_json("workloads.json")
REFERENCE = workloads.load_json("reference.json")
SHORT_DAYS = {"simulate_uniform": 2, "balanced_hetero": 1, "pso_hetero": 1,
              "compare_csv": 14}
# Per-layer figures that must repeat exactly on the same seed.
COUNT_STATS = ("calls", "candidates", "truncated_steps", "infeasible_cycles",
               "bytes_written", "files_written", "pso_iters_to_best",
               "pso_improved_ratio", "ledger_residual_max")


def test_benchmark_json_follows_workloads_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        current = json.load(fh)
    assert current == generate.benchmark_json(SPEC)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_on_one_seed(name, tmp_path):
    passes = [run.trace_one(SPEC, name, 5, workdir=str(tmp_path / str(i)),
                            days=SHORT_DAYS[name]) for i in range(2)]
    layers = SPEC["workloads"][name]["layers"]
    for metrics, attempted, failed, unmeasured in passes:
        assert (attempted, failed) == (2, 0)
        assert set(metrics) == {f"{name}.{m}" for m in layers} | {
            f"{name}.wall_s", f"{name}.days_per_s", f"{name}.trace_overhead_s"}
        assert unmeasured == [m for m, moves in layers.items()
                              if moves == "none expected"]
    counts = [{k: v for k, v in m.items() if k.rsplit(".", 1)[-1] in COUNT_STATS}
              for m, _, _, _ in passes]
    assert counts[0] and counts[0] == counts[1]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_second_seed_passes_every_check(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    assert workloads.reference_errors(cls, str(tmp_path), SPEC, REFERENCE) == []
    w = cls(str(tmp_path), SPEC, days=SHORT_DAYS[name])
    w.setup(9)
    w.prepare()
    first = w.run()
    assert w.check(first) == []
    w.prepare()
    again = w.run()
    assert w.check(again) == []
    assert w.digest(again) == w.digest(first)
    assert w.loss_kwh(first) > 0


def test_tracer_restores_every_patched_function():
    import bessim.allocator
    import bessim.simulate
    before = (bessim.simulate.repair, bessim.allocator.repair,
              bessim.Plant.step)
    with tracing.Tracer():
        assert bessim.simulate.repair is not before[0]
        assert bessim.simulate.repair is bessim.allocator.repair
    assert (bessim.simulate.repair, bessim.allocator.repair,
            bessim.Plant.step) == before


def test_checks_reject_a_broken_ledger_and_allocation(tmp_path):
    w = workloads.PsoHetero(str(tmp_path), SPEC)
    w.setup(3)
    result = w.run()
    assert w.check(result) == []
    grid = result.grid_wh[10]
    result.grid_wh[10] += 1e-3 * abs(grid) + 1.0
    assert any("ledger" in e for e in w.check(result))
    result.grid_wh[10] = grid
    busiest = int(np.argmax(np.abs(result.demand_w)))
    result.alloc_matrix[busiest] = 0.0
    result.alloc_matrix[busiest, 0] = 1.0
    assert [e for e in w.check(result) if "rating" in e]
    result.alloc_matrix[busiest, 0] = 0.5
    assert [e for e in w.check(result) if "sums" in e]
