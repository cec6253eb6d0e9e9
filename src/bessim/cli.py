"""Command-line interface.

Subcommands:
  simulate         closed-loop run of the plant against a load profile
  compare          plan-level improved vs. original scheduling comparison
  optimize         balanced vs. swarm-optimized allocation on one run
  sweep            power-depth sweep with loss decomposition
  gen-load         emit a synthetic load profile CSV
  validate-config  parse and validate a configuration file

Every output file is written atomically (temp file + rename) together
with a run manifest carrying the configuration hash, seed and package
version. Every error, whatever its type, is emitted as one JSON object on
stderr; configuration and usage errors exit with status 2, all others
with 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import (
    component_ledger_report,
    depth_sweep,
    efficiency_scatter,
    ledger_report_csv,
    scatter_csv,
    sweep_reports_json,
)
from .allocator import allocation_matrix_csv
from .config import RunConfig, load_config, parse_config
from .errors import ConfigError
from .plant import Plant
from .profiles import load_profile_from_csv, load_profile_to_csv, synth_load
from .scheduler import (
    LoadProfile,
    ShavingMetrics,
    compute_metrics,
    replay_plan,
)
from .simulate import plan_horizon, run_simulation

OUTPUT_DIR_ENV = "BESSIM_OUTPUT_DIR"


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".bessim-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(outdir: str, cfg: RunConfig, command: str,
                    seed: int, files: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config_sha256": cfg.sha256(),
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "files": sorted(files),
    }
    _write_atomic(os.path.join(outdir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _emit_error(exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConfigError):
        payload["field"] = exc.field
    row = getattr(exc, "row", None)
    if row is not None:
        payload["row"] = row
    print(json.dumps(payload), file=sys.stderr)
    return 2 if isinstance(exc, ConfigError) else 1


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else parse_config({})
    doc = dict(cfg.raw)
    if args.seed is not None:
        load_d = dict(doc.get("load", {}))
        load_d["seed"] = args.seed
        alloc_d = dict(doc.get("allocator", {}))
        pso_d = dict(alloc_d.get("pso", {}))
        pso_d["rng_seed"] = args.seed
        alloc_d["pso"] = pso_d
        doc["load"] = load_d
        doc["allocator"] = alloc_d
        cfg = parse_config(doc)
    return cfg


def _resolve_outdir(args, cfg: RunConfig) -> str:
    if args.output:
        return args.output
    return os.environ.get(OUTPUT_DIR_ENV, cfg.output.dir)


def _load_profile(cfg: RunConfig, days: int | None,
                  steps_plant: bool = False) -> LoadProfile:
    """The configured load, cut to days. A CSV load must be at plant.dt_s;
    a synthetic one too when the command steps the plant (steps_plant)."""
    if cfg.load.source == "csv":
        profile = load_profile_from_csv(cfg.load.csv_path, cfg.plant.dt_s)
    else:
        spec = cfg.load.synth
        if steps_plant and spec.dt_s != cfg.plant.dt_s:
            raise ConfigError("load.synth.dt_s",
                              "must equal plant.dt_s to step the plant")
        if days is not None and days != spec.days:
            from dataclasses import replace
            spec = replace(spec, days=days)
        profile = synth_load(spec, cfg.load.seed)
    if days is not None and cfg.load.source == "csv":
        per_day = profile.samples_per_day()
        profile = LoadProfile(profile.start_time, profile.dt_s,
                              profile.values_w[:days * per_day])
    return profile


def _day_metrics_csv(rows: list[str]) -> str:
    return ShavingMetrics.CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    outdir = _resolve_outdir(args, cfg)
    profile = _load_profile(cfg, args.days, steps_plant=True)
    plant = Plant(cfg.plant)
    result = run_simulation(
        plant, profile, cfg.schedule.power_depth_w,
        cfg.schedule.rated_energy_wh, method=cfg.schedule.method,
        alloc_mode=cfg.allocator.mode, pso_params=cfg.allocator.pso,
        realloc_cadence_s=cfg.allocator.cadence_s)

    per_day = profile.samples_per_day()
    rows = []
    for d, day in enumerate(profile.split_days()):
        sl = slice(d * per_day, d * per_day + day.n_samples)
        metrics = compute_metrics(day, result.plans[d],
                                  result.delivered_w[sl],
                                  cfg.schedule.rated_energy_wh,
                                  demanded_w=result.cluster_target_w[sl])
        rows.append(metrics.csv_row(d, cfg.schedule.method))
    files = []
    metrics_path = os.path.join(outdir, "metrics.csv")
    _write_atomic(metrics_path, _day_metrics_csv(rows))
    files.append("metrics.csv")

    report = component_ledger_report(result)
    _write_atomic(os.path.join(outdir, "ledger.csv"), ledger_report_csv(report))
    files.append("ledger.csv")
    if "json" in cfg.output.formats:
        _write_atomic(os.path.join(outdir, "ledger.json"),
                      json.dumps(report, indent=2, sort_keys=True) + "\n")
        files.append("ledger.json")

    scatters = efficiency_scatter(result)
    for direction, sc in scatters.items():
        name = f"efficiency_{direction}.csv"
        _write_atomic(os.path.join(outdir, name), scatter_csv(sc))
        files.append(name)

    _write_atomic(os.path.join(outdir, "plant_state.json"),
                  plant.snapshot_json() + "\n")
    files.append("plant_state.json")
    _write_manifest(outdir, cfg, "simulate", cfg.load.seed, files)
    print(f"simulate: {profile.n_samples} steps, "
          f"total loss {result.total_loss_wh:.1f} Wh, outputs in {outdir}")
    return 0


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    outdir = _resolve_outdir(args, cfg)
    profile = _load_profile(cfg, args.days)
    rows = []
    summary: dict[str, list[ShavingMetrics]] = {"improved": [], "original": []}
    days = profile.split_days()
    for method in ("improved", "original"):
        plans = plan_horizon(days, cfg.schedule.power_depth_w,
                             cfg.schedule.rated_energy_wh, method,
                             cfg.schedule.initial_plan_energy_wh)
        for d, day in enumerate(days):
            gated = replay_plan(plans[d], day, gated=True)
            metrics = compute_metrics(day, plans[d], gated["demand_w"],
                                      cfg.schedule.rated_energy_wh,
                                      demanded_w=gated["demanded_w"])
            rows.append(metrics.csv_row(d, method))
            summary[method].append(metrics)
    _write_atomic(os.path.join(outdir, "compare.csv"), _day_metrics_csv(rows))

    def mean(vals):
        arr = np.asarray(vals, dtype=float)
        arr = arr[np.isfinite(arr)]
        return float(arr.mean()) if arr.size else float("nan")

    agg = {}
    for method, ms in summary.items():
        agg[method] = {
            "cr": mean([m.cr for m in ms]),
            "rr": mean([m.rr for m in ms]),
            "cur": mean([m.cur for m in ms]),
            "power_utilization": mean([m.power_utilization for m in ms]),
            "equivalent_cycles_total": float(sum(m.equivalent_cycles for m in ms)),
        }
    _write_atomic(os.path.join(outdir, "compare_summary.json"),
                  json.dumps(agg, indent=2, sort_keys=True) + "\n")
    _write_manifest(outdir, cfg, "compare", cfg.load.seed,
                    ["compare.csv", "compare_summary.json"])
    print(f"compare: improved CUR {agg['improved']['cur']:.4f} vs "
          f"original {agg['original']['cur']:.4f}, outputs in {outdir}")
    return 0


def cmd_optimize(args) -> int:
    cfg = _resolve_config(args)
    outdir = _resolve_outdir(args, cfg)
    profile = _load_profile(cfg, args.days, steps_plant=True)
    results = {}
    for mode in ("balanced", "pso"):
        plant = Plant(cfg.plant)
        results[mode] = run_simulation(
            plant, profile, cfg.schedule.power_depth_w,
            cfg.schedule.rated_energy_wh, method=cfg.schedule.method,
            alloc_mode=mode, pso_params=cfg.allocator.pso,
            realloc_cadence_s=cfg.allocator.cadence_s,
            record_alloc=(mode == "pso"))
    report = component_ledger_report(results["pso"], baseline=results["balanced"])
    _write_atomic(os.path.join(outdir, "optimize_ledger.csv"),
                  ledger_report_csv(report))
    times = np.arange(profile.n_samples) * profile.dt_s
    _write_atomic(os.path.join(outdir, "allocation_matrix.csv"),
                  allocation_matrix_csv(times, results["pso"].alloc_matrix))
    _write_manifest(outdir, cfg, "optimize", cfg.allocator.pso.rng_seed,
                    ["optimize_ledger.csv", "allocation_matrix.csv"])
    delta = report["delta_total_loss_wh"]
    print(f"optimize: total loss delta vs balanced {delta:+.1f} Wh "
          f"({report['total_loss_wh']:.1f} vs "
          f"{report['baseline_total_loss_wh']:.1f}), outputs in {outdir}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    outdir = _resolve_outdir(args, cfg)
    profile = _load_profile(cfg, args.days)
    cluster, m = cfg.plant.clusters[0], len(cfg.plant.clusters)
    # without --depths: 1/5 ... 5/5 of the plant's clusters, rounded up
    depths = args.depths or sorted(
        {(j * m + 4) // 5 * cluster.rated_power_w for j in range(1, 6)})
    reports = depth_sweep(profile, depths, cluster=cluster,
                          soc_min=cfg.plant.soc_min, soc_max=cfg.plant.soc_max,
                          initial_soc=cfg.plant.initial_soc,
                          method=cfg.schedule.method)
    lines = [reports[0].CSV_HEADER] + [r.csv_row() for r in reports]
    _write_atomic(os.path.join(outdir, "sweep.csv"), "\n".join(lines) + "\n")
    files = ["sweep.csv"]
    if "json" in cfg.output.formats:
        _write_atomic(os.path.join(outdir, "sweep.json"),
                      sweep_reports_json(reports))
        files.append("sweep.json")
    _write_manifest(outdir, cfg, "sweep", cfg.load.seed, files)
    print(f"sweep: {len(reports)} depths, outputs in {outdir}")
    return 0


def cmd_gen_load(args) -> int:
    cfg = _resolve_config(args)
    outdir = _resolve_outdir(args, cfg)
    profile = _load_profile(cfg, args.days)
    path = os.path.join(outdir, args.name)
    _write_atomic(path, load_profile_to_csv(profile))
    _write_manifest(outdir, cfg, "gen-load", cfg.load.seed, [args.name])
    print(f"gen-load: {profile.n_samples} samples written to {path}")
    return 0


def cmd_validate_config(args) -> int:
    if not args.config:
        raise ConfigError("config", "a --config file is required")
    cfg = load_config(args.config)
    print(json.dumps({"valid": True, "config_sha256": cfg.sha256()}))
    return 0


def _positive_int(text: str) -> int:
    """--days: a positive integer."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return int(text)


def _depths(text: str) -> list[float]:
    """--depths: comma-separated finite positive powers in W."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated positive numbers, got {text!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so they
    leave main() as a JSON error like every other failure; --help and
    --version still print and exit 0."""

    def error(self, message: str):
        raise ConfigError("argv", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bessim",
        description="Battery energy storage peak-shaving simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to the JSON configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the load and optimizer seeds")
        p.add_argument("--output", help="output directory (overrides config "
                       f"and ${OUTPUT_DIR_ENV})")
        p.add_argument("--days", type=_positive_int, default=None,
                       help="limit or extend the horizon to this many days")

    for name, fn, doc in (
        ("simulate", cmd_simulate, "closed-loop plant simulation"),
        ("compare", cmd_compare, "improved vs. original scheduling"),
        ("optimize", cmd_optimize, "balanced vs. swarm allocation"),
        ("sweep", cmd_sweep, "power-depth sweep"),
        ("gen-load", cmd_gen_load, "generate a synthetic load CSV"),
        ("validate-config", cmd_validate_config, "validate a config file"),
    ):
        p = sub.add_parser(name, help=doc)
        common(p)
        p.set_defaults(fn=fn)
        if name == "sweep":
            p.add_argument("--depths", type=_depths, default=None,
                           help="comma-separated power depths in W "
                           "(default: 1/5 to 5/5 of the plant's rating)")
        if name == "gen-load":
            p.add_argument("--name", default="load.csv",
                           help="output file name")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except Exception as exc:   # every failure leaves as one JSON error object
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
