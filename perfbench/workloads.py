"""The four benchmark workloads.

Each workload builds its inputs from a seed in ``setup`` (timed as set-up),
runs the program once per ``run`` call (timed), and checks the run's
output in ``check`` (untimed). ``prepare`` clears the previous run's output
directory outside the timed region. Workload parameters live in
``workloads.json``.

The program is always reached through module attributes
(``simulate.run_simulation``, ``cli.main``), never through names bound in
this module, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import traceback

import numpy as np

from bessim import cli, profiles, simulate
from bessim.allocator import PsoParams
from bessim.plant import Plant, uniform_plant_config
from bessim.profiles import SynthLoadSpec

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

LEDGER_COMPONENTS = ("transformer", "acdc", "dcdc", "battery_ohmic",
                     "battery_polarization")


def load_json(name: str) -> dict:
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


def ledger_sums(result) -> dict[str, float]:
    """Per-component loss energy of a SimulationResult (Wh) and the total."""
    return {"transformer": float(result.transformer_wh.sum()),
            "acdc": float(result.acdc_wh.sum()),
            "dcdc": float(result.dcdc_wh.sum()),
            "battery_ohmic": float(result.ohmic_wh.sum()),
            "battery_polarization": float(result.polarization_wh.sum()),
            "total": result.total_loss_wh}


def _dir_files(path: str) -> dict[str, bytes]:
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            files[name] = fh.read()
    return files


class Workload:
    """Base: a workdir, parameters from workloads.json and the tolerances."""

    name = ""

    def __init__(self, workdir: str, spec: dict, days: int | None = None):
        self.dir = os.path.join(workdir, self.name)
        self.out_dir = os.path.join(self.dir, "out")
        self.params = dict(spec["workloads"][self.name]["params"])
        if days is not None:
            self.params["days"] = days
        self.days = self.params["days"]
        self.tol = spec["tolerances"]
        os.makedirs(self.dir, exist_ok=True)

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def output_counts(self, out) -> dict[str, int]:
        return {}


class _CliWorkload(Workload):
    """A bessim subcommand run in-process; outputs are the files written."""

    command = ""
    expected_files: tuple[str, ...] = ()

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.config_path = os.path.join(self.dir, "config.json")

    def _write_config(self, doc: dict) -> None:
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)

    def run(self):
        # Keep the SimulationResult the command computes, for the per-step
        # ledger check; the command itself only writes totals.
        captured = []
        real = cli.run_simulation

        def capture(*args, **kwargs):
            result = real(*args, **kwargs)
            captured.append(result)
            return result

        cli.run_simulation = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([self.command, "--config", self.config_path,
                               "--output", self.out_dir])
        finally:
            cli.run_simulation = real
        files = _dir_files(self.out_dir) if os.path.isdir(self.out_dir) else {}
        return {"rc": rc, "results": captured, "files": files}

    def check(self, out) -> list[str]:
        if out["rc"] != 0:
            return [f"bessim {self.command} exited {out['rc']}"]
        missing = set(self.expected_files) - set(out["files"])
        if missing:
            return [f"missing output files: {sorted(missing)}"]
        return []

    def digest(self, out) -> str:
        """Hash of the data files; manifest.json carries a timestamp."""
        h = hashlib.sha256()
        for name, data in out["files"].items():
            if name != "manifest.json":
                h.update(name.encode() + b"\0" + data)
        return h.hexdigest()

    def output_counts(self, out) -> dict[str, int]:
        files = out["files"]
        return {"cli.files_written": len(files),
                "cli.bytes_written": sum(len(d) for n, d in files.items()
                                         if n != "manifest.json")}


class SimulateUniform(_CliWorkload):
    name = "simulate_uniform"
    command = "simulate"
    expected_files = ("metrics.csv", "ledger.csv", "ledger.json",
                      "efficiency_charge.csv", "efficiency_discharge.csv",
                      "plant_state.json", "manifest.json")

    def setup(self, seed: int) -> None:
        p = self.params
        self._write_config({
            "plant": {"n_clusters": p["clusters"], "dt_s": p["dt_s"]},
            "schedule": {"method": p["method"]},
            "allocator": {"mode": p["alloc_mode"]},
            "load": {"source": "synthetic", "seed": seed,
                     "synth": {"days": p["days"], "dt_s": p["dt_s"]}},
            "output": {"formats": p["formats"]},
        })

    def check(self, out) -> list[str]:
        errors = super().check(out)
        if errors:
            return errors
        if len(out["results"]) != 1:
            return ["simulate did not run exactly one simulation"]
        result = out["results"][0]
        errors = checks.check_ledger(result, self.tol["ledger_rel"])
        # the written ledger must report the losses the run accumulated
        errors += checks.check_close(self.summary(out),
                                         ledger_sums(result), 1e-12)
        return errors

    def summary(self, out) -> dict[str, float]:
        report = json.loads(out["files"]["ledger.json"])
        values = {c: report["components"][c]["loss_wh"]
                  for c in LEDGER_COMPONENTS}
        values["total"] = report["total_loss_wh"]
        return values

    def loss_kwh(self, out) -> float:
        return self.summary(out)["total"] / 1e3


class CompareCsv(_CliWorkload):
    name = "compare_csv"
    command = "compare"
    expected_files = ("compare.csv", "compare_summary.json", "manifest.json")

    def setup(self, seed: int) -> None:
        p = self.params
        spec = SynthLoadSpec(days=p["days"], dt_s=float(p["dt_s"]), **p["synth"])
        profile = profiles.synth_load(spec, seed)
        csv_path = os.path.join(self.dir, "load.csv")
        with open(csv_path, "w") as fh:
            fh.write(profiles.load_profile_to_csv(profile))
        self._write_config({
            "plant": {"dt_s": p["dt_s"]},
            "schedule": {"power_depth_w": p["power_depth_w"],
                         "rated_energy_wh": p["rated_energy_wh"]},
            "load": {"source": "csv", "csv_path": csv_path},
        })

    def _rows(self, out) -> list[list[str]]:
        lines = out["files"]["compare.csv"].decode().splitlines()
        return [line.split(",") for line in lines[1:]]

    def check(self, out) -> list[str]:
        errors = super().check(out)
        if errors:
            return errors
        rows = self._rows(out)
        if len(rows) != 2 * self.days:
            return [f"compare.csv has {len(rows)} rows, want {2 * self.days}"]
        for method, vals in json.loads(out["files"]["compare_summary.json"]).items():
            if not all(np.isfinite([vals["cr"], vals["cur"]])):
                errors.append(f"{method}: non-finite mean CR or CUR")
        return errors

    def summary(self, out) -> dict[str, float]:
        doc = json.loads(out["files"]["compare_summary.json"])
        return {f"{method}.{key}": value
                for method, vals in doc.items() for key, value in vals.items()}

    def loss_kwh(self, out) -> float:
        # columns: day,method,cr,rr,cur,power_utilization,equivalent_cycles,
        #          e_chr_wh,e_dis_wh,e_val_wh,e_pek_wh
        return sum(float(r[9]) - float(r[7]) for r in self._rows(out)
                   if r[1] == "improved") / 1e3


class _HeteroWorkload(Workload):
    """Library run on a 100-cluster plant with seeded non-uniform SoC."""

    def setup(self, seed: int) -> None:
        p = self.params
        # The seed varies load noise, initial SoC and the swarm; the daily
        # shape is fixed so that every seed asks for about the same work.
        self.profile = profiles.synth_load(
            SynthLoadSpec(days=p["days"], dt_s=float(p["dt_s"]), **p["synth"]),
            seed)
        self.soc0 = np.random.default_rng([seed, 1]).uniform(
            0.3, 0.7, p["clusters"])
        self.plant_cfg = uniform_plant_config(p["clusters"], dt_s=float(p["dt_s"]))
        self.seed = seed

    def _simulate(self, **kwargs):
        p = self.params
        plant = Plant(self.plant_cfg)
        plant.soc = self.soc0.copy()
        return simulate.run_simulation(
            plant, self.profile, p["power_depth_w"], p["rated_energy_wh"],
            method=p["method"], alloc_mode=p["alloc_mode"], **kwargs)

    def check(self, result) -> list[str]:
        return checks.check_ledger(result, self.tol["ledger_rel"])

    def digest(self, result) -> str:
        h = hashlib.sha256()
        for arr in (result.grid_wh, result.stored_wh, result.transformer_wh,
                    result.acdc_wh, result.dcdc_wh, result.ohmic_wh,
                    result.polarization_wh, result.delivered_w):
            h.update(arr.tobytes())
        if result.alloc_matrix is not None:
            h.update(result.alloc_matrix.tobytes())
        return h.hexdigest()

    def summary(self, result) -> dict[str, float]:
        return ledger_sums(result)

    def loss_kwh(self, result) -> float:
        return result.total_loss_wh / 1e3


class BalancedHetero(_HeteroWorkload):
    name = "balanced_hetero"

    def run(self):
        return self._simulate()


class PsoHetero(_HeteroWorkload):
    name = "pso_hetero"

    def run(self):
        return self._simulate(pso_params=PsoParams(rng_seed=self.seed),
                              realloc_cadence_s=float(self.params["cadence_s"]),
                              record_alloc=self.params["record_alloc"])

    def check(self, result) -> list[str]:
        return super().check(result) + checks.check_allocations(
            result, self.tol["alloc_row_sum"])


WORKLOADS = {w.name: w for w in (SimulateUniform, BalancedHetero, PsoHetero,
                                 CompareCsv)}


def reference_summary(cls, workdir: str, spec: dict):
    """Run the workload's reference case: the reference seed over
    ``reference_days``. Returns (summary values, check errors)."""
    w = cls(os.path.join(workdir, "reference"), spec,
            days=spec["workloads"][cls.name]["params"]["reference_days"])
    w.setup(spec["reference_seed"])
    w.prepare()
    try:
        out = w.run()
    except Exception:
        return None, [traceback.format_exc()]
    errors = w.check(out)
    return (None if errors else w.summary(out)), errors


def reference_errors(cls, workdir: str, spec: dict, reference: dict) -> list[str]:
    """The reference case compared with reference.json; [] for workloads
    that have no stored reference."""
    if cls.name not in reference:
        return []
    summary, errors = reference_summary(cls, workdir, spec)
    if errors:
        return errors
    return checks.check_close(summary, reference[cls.name],
                                  spec["tolerances"]["reference_rel"])
