"""Regenerate BENCHMARK.json and perfbench/reference.json.

    python3 perfbench/generate.py [--reference]

BENCHMARK.json's workload list and per-layer metrics follow from
workloads.json. With ``--reference`` the reference cases are run and their
summary values stored as the new reference: do that only when a change is
meant to alter the program's output, and say so in the change.
"""

import argparse
import json
import os
import shutil
import sys

import run


def benchmark_json(spec: dict) -> dict:
    per_layer = []
    for name in run.per_layer_names(spec):
        unit, better = run.layer_unit(name)
        per_layer.append({"name": name, "unit": unit, "better": better})
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run.RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]}
                      for n, w in spec["workloads"].items()],
        "end_to_end": run.END_TO_END,
        "per_layer": per_layer,
    }


def reference_json(workloads, spec: dict) -> dict:
    ref = {}
    for name, cls in workloads.WORKLOADS.items():
        if "reference_days" not in spec["workloads"][name]["params"]:
            continue
        summary, errors = workloads.reference_summary(cls, run.WORKDIR, spec)
        if errors:
            raise SystemExit(f"{name}: reference run failed: {errors}")
        ref[name] = summary
    return ref


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    import workloads
    spec = workloads.load_json("workloads.json")
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_json(spec), fh, indent=2)
        fh.write("\n")
    if args.reference:
        ref = reference_json(workloads, spec)
        with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
            json.dump(ref, fh, indent=2, sort_keys=True)
            fh.write("\n")
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
