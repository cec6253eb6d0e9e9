"""Command-line interface.

Subcommands:
  simulate         closed-loop run of the plant against a load profile
  compare          plan-level improved vs. original scheduling comparison
  optimize         balanced vs. swarm-optimized allocation on one run
  sweep            power-depth sweep with loss decomposition
  gen-load         emit a synthetic load profile CSV
  validate-config  parse and validate a configuration file

Every command but validate-config runs through _run, in one order: the
config (with --seed), the output directory, the load, the computation;
then each of its data files, all built first, is written atomically
(temp file + rename), then a run manifest carrying the configuration
hash, seed, package version and the data files' names, then one summary
line on stdout.
Every error, whatever its type, is emitted as one JSON object on stderr;
configuration and usage errors exit with status 2, all others with 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import (
    allocation_matrix_csv,
    component_ledger_report,
    depth_sweep,
    efficiency_scatter,
    ledger_report_csv,
    metrics_csv,
    scatter_csv,
    sweep_csv,
    sweep_reports_json,
)
from .config import RunConfig, load_config, parse_config
from .errors import ConfigError
from .plant import Plant
from .profiles import load_profile_from_csv, load_profile_to_csv, synth_load
from .scheduler import LoadProfile, horizon_metrics, replay_horizon
from .simulate import plan_horizon, run_simulation

OUTPUT_DIR_ENV = "BESSIM_OUTPUT_DIR"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_outputs(outdir: str, cfg: RunConfig, command: str, seed: int,
                   files: dict[str, str]) -> None:
    """Write each finished data file (name -> text), then a manifest.json
    listing exactly those names: each to a temp file of mode 0o666 (the
    umask applies, as to a plain open(path, "w")), renamed into place."""
    manifest = _json_text({
        "command": command, "version": __version__,
        "config_sha256": cfg.sha256(), "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "files": sorted(files)})
    os.makedirs(outdir or ".", exist_ok=True)
    for name, text in [*files.items(), ("manifest.json", manifest)]:
        tmp = os.path.join(outdir, f".bessim-{os.urandom(8).hex()}")
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, os.path.join(outdir, name))
        except BaseException:
            os.unlink(tmp)
            raise


def _emit_error(exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for key in ("field", "row"):
        value = getattr(exc, key, None)
        if value is not None:
            payload[key] = value
    print(json.dumps(payload), file=sys.stderr)
    return 2 if isinstance(exc, ConfigError) else 1


def _resolve_config(args) -> RunConfig:
    """The --config file's config, or the defaults; --seed replaces
    load.seed and allocator.pso.rng_seed."""
    cfg = load_config(args.config) if args.config else parse_config({})
    if args.seed is None:
        return cfg
    raw, alloc = cfg.raw, cfg.raw.get("allocator", {})
    return parse_config({
        **raw, "load": {**raw.get("load", {}), "seed": args.seed},
        "allocator": {**alloc, "pso": {**alloc.get("pso", {}),
                                       "rng_seed": args.seed}}})


def _resolve_outdir(args, cfg: RunConfig) -> str:
    """The output directory from --output, $BESSIM_OUTPUT_DIR or output.dir,
    in that order; it, or its first existing ancestor, must be a directory,
    so that a path the writes cannot use fails before the run."""
    if args.output:
        source, outdir = "argv", args.output
    elif OUTPUT_DIR_ENV in os.environ:
        source, outdir = OUTPUT_DIR_ENV, os.environ[OUTPUT_DIR_ENV]
    else:
        source, outdir = "output.dir", cfg.output.dir
    path = os.path.abspath(outdir or ".")
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(source, f"cannot write to {outdir}: {path} is not "
                          "a directory")
    return outdir


def _load_profile(cfg: RunConfig, days: int | None,
                  steps_plant: bool) -> LoadProfile:
    """The configured load, cut to days. A CSV load must be at plant.dt_s
    and span days days (a short last day counts, as in plan_horizon); a
    synthetic one must be at plant.dt_s too when the command steps the
    plant (steps_plant)."""
    if cfg.load.source != "csv":
        spec = cfg.load.synth
        if steps_plant and spec.dt_s != cfg.plant.dt_s:
            raise ConfigError("load.synth.dt_s",
                              "must equal plant.dt_s to step the plant")
        return synth_load(replace(spec, days=days or spec.days), cfg.load.seed)
    profile = load_profile_from_csv(cfg.load.csv_path, cfg.plant.dt_s)
    if days is None:
        return profile
    per_day = profile.samples_per_day()
    have = math.ceil(profile.n_samples / per_day)
    if days > have:
        raise ConfigError("argv", f"--days {days} exceeds the {have} "
                          f"days of the CSV load")
    return LoadProfile(profile.start_time, profile.dt_s,
                       profile.values_w[:days * per_day])


def _run(args) -> int:
    """A file-writing command: its config, output directory and load, in
    that order, so the first of their errors is the one raised; then
    args.compute(args, cfg, profile) -> (manifest seed, files, line); then
    the files, the manifest and line(outdir), its one stdout line."""
    cfg = _resolve_config(args)
    outdir = _resolve_outdir(args, cfg)
    profile = _load_profile(cfg, args.days, args.steps_plant)
    seed, files, line = args.compute(args, cfg, profile)
    _write_outputs(outdir, cfg, args.command, seed, files)
    print(f"{args.command}: {line(outdir)}")
    return 0


def _simulate(cfg: RunConfig, profile: LoadProfile, alloc_mode: str,
              record_alloc: bool = False):
    """A fresh configured plant run through the horizon by run_simulation,
    looked up in this module at each call."""
    return run_simulation(
        Plant(cfg.plant), profile, cfg.schedule.power_depth_w,
        cfg.schedule.rated_energy_wh, method=cfg.schedule.method,
        alloc_mode=alloc_mode, pso_params=cfg.allocator.pso,
        realloc_cadence_s=cfg.allocator.cadence_s, record_alloc=record_alloc)


def cmd_simulate(args, cfg: RunConfig, profile: LoadProfile):
    result = _simulate(cfg, profile, cfg.allocator.mode)
    metrics = horizon_metrics(profile, result.plans, result.delivered_w,
                              cfg.schedule.rated_energy_wh,
                              demanded_w=result.cluster_target_w)
    report = component_ledger_report(result)
    files = {"metrics.csv": metrics_csv(
                 [(d, cfg.schedule.method, m) for d, m in enumerate(metrics)]),
             "ledger.csv": ledger_report_csv(report)}
    if "json" in cfg.output.formats:
        files["ledger.json"] = _json_text(report)
    for direction, sc in efficiency_scatter(result).items():
        files[f"efficiency_{direction}.csv"] = scatter_csv(sc)
    files["plant_state.json"] = result.plant.snapshot_json() + "\n"
    return cfg.load.seed, files, lambda outdir: (
        f"{profile.n_samples} steps, total loss {result.total_loss_wh:.1f} "
        f"Wh, outputs in {outdir}")


def cmd_compare(args, cfg: RunConfig, profile: LoadProfile):
    def gated_metrics(method):
        plans = plan_horizon(profile, cfg.schedule.power_depth_w,
                             cfg.schedule.rated_energy_wh, method,
                             cfg.schedule.initial_plan_energy_wh)
        gated = replay_horizon(plans, profile, gated=True)
        executed, demanded = gated["demand_w"], gated["demanded_w"]
        del gated   # the energy trace, which the metrics do not read
        return horizon_metrics(profile, plans, executed,
                               cfg.schedule.rated_energy_wh,
                               demanded_w=demanded)

    summary = {method: gated_metrics(method)
               for method in ("improved", "original")}
    rows = [(d, method, m) for method, ms in summary.items()
            for d, m in enumerate(ms)]

    def mean(ms, key):
        arr = np.array([getattr(m, key) for m in ms], dtype=float)
        arr = arr[np.isfinite(arr)]
        return float(arr.mean()) if arr.size else float("nan")

    agg = {method: {
        **{k: mean(ms, k) for k in ("cr", "rr", "cur", "power_utilization")},
        "equivalent_cycles_total": float(sum(m.equivalent_cycles for m in ms)),
    } for method, ms in summary.items()}
    files = {"compare.csv": metrics_csv(rows),
             "compare_summary.json": _json_text(agg)}
    return cfg.load.seed, files, lambda outdir: (
        f"improved CUR {agg['improved']['cur']:.4f} vs "
        f"original {agg['original']['cur']:.4f}, outputs in {outdir}")


def cmd_optimize(args, cfg: RunConfig, profile: LoadProfile):
    balanced = _simulate(cfg, profile, "balanced")
    pso = _simulate(cfg, profile, "pso", record_alloc=True)
    report = component_ledger_report(pso, baseline=balanced)
    files = {"optimize_ledger.csv": ledger_report_csv(report),
             "allocation_matrix.csv": allocation_matrix_csv(
                 np.arange(profile.n_samples) * profile.dt_s,
                 pso.alloc_matrix)}
    return cfg.allocator.pso.rng_seed, files, lambda outdir: (
        f"total loss delta vs balanced {report['delta_total_loss_wh']:+.1f} "
        f"Wh ({report['total_loss_wh']:.1f} vs "
        f"{report['baseline_total_loss_wh']:.1f}), outputs in {outdir}")


def cmd_sweep(args, cfg: RunConfig, profile: LoadProfile):
    cluster, m = cfg.plant.clusters[0], len(cfg.plant.clusters)
    # without --depths: 1/5 ... 5/5 of the plant's clusters, rounded up
    depths = args.depths or sorted(
        {(j * m + 4) // 5 * cluster.rated_power_w for j in range(1, 6)})
    try:
        reports = depth_sweep(
            profile, depths, cluster=cluster, soc_min=cfg.plant.soc_min,
            soc_max=cfg.plant.soc_max, initial_soc=cfg.plant.initial_soc,
            method=cfg.schedule.method)
    except ConfigError as exc:
        # a depth the plant's clusters cannot make is a bad --depths value
        if exc.field != "depths":
            raise
        raise ConfigError("argv", f"argument --depths: {exc.reason}") from None
    files = {"sweep.csv": sweep_csv(reports)}
    if "json" in cfg.output.formats:
        files["sweep.json"] = sweep_reports_json(reports)
    return cfg.load.seed, files, lambda outdir: (
        f"{len(reports)} depths, outputs in {outdir}")


def cmd_gen_load(args, cfg: RunConfig, profile: LoadProfile):
    return cfg.load.seed, {args.name: load_profile_to_csv(profile)}, \
        lambda outdir: (f"{profile.n_samples} samples written to "
                        f"{os.path.join(outdir, args.name)}")


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


def _file_name(text: str) -> str:
    """--name: a plain file name in the output directory, not the manifest."""
    if text in ("", ".", "..", "manifest.json") or {"/", os.sep} & set(text):
        raise argparse.ArgumentTypeError(
            f"must be a plain file name other than manifest.json, got {text!r}")
    return text


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

    # name, computation, whether it steps the plant (so that a synthetic
    # load must be at plant.dt_s), help; validate-config, which writes
    # nothing, reads no load and ignores --seed, runs outside _run
    for name, compute, steps_plant, doc in (
        ("simulate", cmd_simulate, True, "closed-loop plant simulation"),
        ("compare", cmd_compare, False, "improved vs. original scheduling"),
        ("optimize", cmd_optimize, True, "balanced vs. swarm allocation"),
        ("sweep", cmd_sweep, False, "power-depth sweep"),
        ("gen-load", cmd_gen_load, False, "generate a synthetic load CSV"),
        ("validate-config", None, False, "validate a config file"),
    ):
        p = sub.add_parser(name, help=doc)
        p.set_defaults(fn=_run if compute else cmd_validate_config,
                       compute=compute, steps_plant=steps_plant)
        p.add_argument("--config", help="path to the JSON configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the load and optimizer seeds")
        p.add_argument("--output", help="output directory (overrides config "
                       f"and ${OUTPUT_DIR_ENV})")
        p.add_argument("--days", type=_positive_int, default=None,
                       help="limit or extend the horizon to this many days")
        if name == "sweep":
            p.add_argument("--depths", type=_depths, default=None,
                           help="comma-separated power depths in W "
                           "(default: 1/5 to 5/5 of the plant's rating)")
        if name == "gen-load":
            p.add_argument("--name", type=_file_name, default="load.csv",
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
