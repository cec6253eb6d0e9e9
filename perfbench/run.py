"""bessim benchmark: four closed-loop workloads, checked outputs, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Untraced (``--trace 0``): the named workload is set up ``SETUP_REPEATS``
times, then run back to back by one caller (a closed loop: the next run
starts when the previous one returns) for ``--seconds`` seconds and at
least ``MIN_RUNS`` runs. Every run's output is checked; a run that raises,
exits non-zero or fails a check counts as failed. The reference case of
the workload (a short run at the reference seed, compared with
``reference.json``) runs once before timing; if it fails, every run fails.
The end-to-end metrics are printed by name with their units. Run time is
gated as ``wall_cal``: each run's wall time over the median of the
calibration kernel timed three times before and three times after it,
median over the runs. Raw ``wall_s`` and ``days_per_s`` are printed beside
it and reported per workload by the traced pass. With ``--workload all``
(the default) every workload is measured in turn in one process, metrics
are prefixed with the workload name, and ``peak_rss_mib`` is the process
peak so far.

Traced (``--trace 1``): every workload gets one untraced and one traced
run, whatever ``--workload`` names, so that all per-layer metrics are
present. Per-layer metrics are named ``<workload>.<module>.<function>.<stat>``
and ``<workload>.trace_overhead_s`` is traced minus untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program runs
in-process from ``src/``; nothing is installed. Scratch output goes to
``.perfbench_work/`` at the checkout root.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

RUN_SECONDS = 25          # default --seconds; BENCHMARK.json's run_seconds
SETUP_REPEATS = 3
MIN_RUNS = 3

# End-to-end metrics as BENCHMARK.json lists them. bound: the share of the
# parent's median by which a metric may worsen before a change is rejected.
# Run time is gated in calibration units (see calibration.py): raw wall
# seconds drift too much on a shared machine for any bound up to 0.25.
END_TO_END = [
    {"name": "wall_cal", "unit": "cal", "better": "lower", "bound": 0.22},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "loss_kwh", "unit": "kWh", "better": "lower", "bound": 0.05},
]
E2E_UNITS = {m["name"]: m["unit"] for m in END_TO_END}

# Units and direction of per-layer figures, by the metric's last name part.
LAYER_UNITS = {
    "calls": ("count", "lower"), "self_s": ("s", "lower"),
    "p50_us": ("us", "lower"), "p99_us": ("us", "lower"),
    "candidates": ("count", "lower"), "us_per_candidate": ("us", "lower"),
    "rows_per_s": ("1/s", "higher"), "truncated_steps": ("count", "lower"),
    "ledger_residual_max": ("rel", "lower"),
    "infeasible_cycles": ("count", "lower"),
    "pso_iters_to_best": ("iter", "lower"),
    "pso_improved_ratio": ("ratio", "higher"),
    "bytes_written": ("B", "lower"), "files_written": ("count", "lower"),
    "trace_overhead_s": ("s", "lower"), "wall_s": ("s", "lower"),
    "days_per_s": ("day/s", "higher"),
}


def layer_unit(metric: str) -> tuple[str, str]:
    return LAYER_UNITS[metric.rsplit(".", 1)[-1]]


def per_layer_names(spec: dict) -> list[str]:
    names = []
    for w, ws in spec["workloads"].items():
        names += [f"{w}.{m}" for m in ws["layers"]]
        names += [f"{w}.wall_s", f"{w}.days_per_s", f"{w}.trace_overhead_s"]
    return names


def metadata() -> dict:
    import numpy
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    sha = fh.read().strip()
    pkg = os.path.join(SRC, "bessim")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "src_lines": lines}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _report_errors(name: str, what: str, errors: list[str]) -> None:
    for e in errors:
        print(f"perfbench: {name}: {what}: {e}", file=sys.stderr)


def _timed_run(w):
    """One timed run. Returns (seconds, output or None, errors)."""
    w.prepare()
    t = time.perf_counter()
    try:
        out = w.run()
    except Exception:
        return time.perf_counter() - t, None, [traceback.format_exc()]
    return time.perf_counter() - t, out, []


def _checked_run(w, first_digest):
    """A timed run and its output checks, which are not timed."""
    elapsed, out, errors = _timed_run(w)
    if out is not None:
        errors = w.check(out)
    if not errors and first_digest is not None and w.digest(out) != first_digest:
        errors = ["output differs from the first run on the same inputs"]
    return elapsed, out, errors


def measure(spec, reference, name, seed, seconds, import_s):
    """Untraced closed-loop measurement of one workload."""
    import calibration
    import workloads
    cls = workloads.WORKLOADS[name]
    ref_errors = workloads.reference_errors(cls, WORKDIR, spec, reference)
    _report_errors(name, "reference case", ref_errors)

    w = cls(WORKDIR, spec)
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        w.setup(seed)
        setups.append(time.perf_counter() - t)

    times, units, losses, failed, first = [], [], [], 0, None
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_RUNS or time.perf_counter() < deadline:
        before = calibration.samples()
        elapsed, out, errors = _checked_run(w, first)
        units.append(calibration.run_in_units(elapsed, before,
                                              calibration.samples()))
        times.append(elapsed)
        if errors or ref_errors:
            failed += 1
            _report_errors(name, f"run {len(times)}", errors)
            continue
        if first is None:
            first = w.digest(out)
        losses.append(w.loss_kwh(out))

    wall = statistics.median(times)
    q1, q3 = _quartiles(times)
    u1, u3 = _quartiles(units)
    setup_s = import_s + statistics.median(setups)
    metrics = {
        "wall_cal": statistics.median(units),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib(),
        "loss_kwh": statistics.median(losses) if losses else float("nan"),
    }
    print(f"{name}: seed {seed}, {len(times)} runs, closed loop, 1 caller")
    print(f"  wall_s        {wall:.4f} s  (median of {len(times)} runs; "
          f"q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  days_per_s    {w.days / wall:.3f} day/s  ({w.days} days per run)")
    print(f"  wall_cal      {metrics['wall_cal']:.3f} cal  (run time over the "
          f"calibration kernel's; q1 {u1:.3f}, q3 {u3:.3f})")
    print(f"  setup_s       {setup_s:.4f} s  (import {import_s:.4f} s + median "
          f"of {SETUP_REPEATS} set-ups)")
    print(f"  peak_rss_mib  {metrics['peak_rss_mib']:.1f} MiB")
    print(f"  fail_ratio    {failed}/{len(times)} = {failed / len(times):.3f}")
    print(f"  loss_kwh      {metrics['loss_kwh']:.6f} kWh  "
          f"({spec['workloads'][name]['loss_kwh']})")
    return metrics, len(times), failed


def trace_one(spec, name, seed, workdir=WORKDIR, days=None):
    """One untraced and one traced run of a workload; per-layer metrics."""
    import tracing
    import workloads
    w = workloads.WORKLOADS[name](workdir, spec, days=days)
    w.setup(seed)
    untraced, out, errors = _checked_run(w, None)
    _report_errors(name, "untraced run", errors)
    failed = int(bool(errors))

    tracer = tracing.Tracer()
    with tracer:
        w.setup(seed)                # traced too: CSV emit is set-up work
        traced, out, t_errors = _timed_run(w)
    if out is not None:
        t_errors = w.check(out)
    _report_errors(name, "traced run", t_errors)
    failed += int(bool(t_errors))

    layer = tracer.layer_metrics()
    if out is not None:
        layer.update(w.output_counts(out))
    # A layer the run never entered (or that the program no longer has)
    # reads 0; the test suite checks which ones those are at this commit.
    metrics, unmeasured = {}, []
    for metric in spec["workloads"][name]["layers"]:
        if metric not in layer:
            unmeasured.append(metric)
        metrics[f"{name}.{metric}"] = layer.get(metric, 0)
    metrics[f"{name}.wall_s"] = untraced
    metrics[f"{name}.days_per_s"] = w.days / untraced
    metrics[f"{name}.trace_overhead_s"] = traced - untraced
    print(f"{name}: traced {traced:.4f} s, untraced {untraced:.4f} s, "
          f"overhead {traced - untraced:+.4f} s, {len(tracer.spans)} spans")
    if unmeasured or tracer.missing:
        print(f"  not entered: {', '.join(unmeasured)}; not in the program: "
              f"{', '.join(tracer.missing) or 'none'}")
    return metrics, 2, failed, unmeasured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bessim", "__init__.py")):
        print(f"perfbench: no bessim sources under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    # measure() and trace_one() import the benchmark modules from here on
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    import_s = time.perf_counter() - _T0

    spec = workloads.load_json("workloads.json")
    reference = workloads.load_json("reference.json")
    names = list(workloads.WORKLOADS)
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(names)} or all")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    meta = metadata()
    print("perfbench: " + ", ".join(f"{k} {v}" for k, v in meta.items())
          + f", seed {args.seed}")

    metrics, attempted, failed = {}, 0, 0
    if args.trace:
        for name in names:
            m, a, f, _ = trace_one(spec, name, args.seed)
            metrics.update(m)
            attempted += a
            failed += f
        units = {n: layer_unit(n)[0] for n in metrics}
    else:
        selected = names if args.workload == "all" else [args.workload]
        for name in selected:
            m, a, f = measure(spec, reference, name, args.seed, args.seconds,
                              import_s)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
        units = {n: E2E_UNITS[n.rsplit(".", 1)[-1]] for n in metrics}
    shutil.rmtree(WORKDIR, ignore_errors=True)

    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
