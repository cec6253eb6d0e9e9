"""Run configuration: a single JSON document, validated into dataclasses.

All powers are in W, energies in Wh, times in seconds or ISO-8601. Every
random quantity takes an explicit seed; nothing draws wall-clock entropy.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields

from .allocator import PsoParams
from .errors import ConfigError, DomainError
from .losses import CellParams, OcvCoeffs, PcsEfficiencyCoeffs, TransformerParams
from .plant import ClusterParams, PlantConfig, uniform_plant_config
from .profiles import SynthLoadSpec


@dataclass(frozen=True)
class ScheduleConfig:
    power_depth_w: float = 5e6
    rated_energy_wh: float = 10e6
    method: str = "improved"
    initial_plan_energy_wh: float = 0.0

    def __post_init__(self):
        if self.method not in ("improved", "original"):
            raise ConfigError("schedule.method", "must be 'improved' or 'original'")
        if self.power_depth_w <= 0:
            raise ConfigError("schedule.power_depth_w", "must be positive")
        if self.rated_energy_wh <= 0:
            raise ConfigError("schedule.rated_energy_wh", "must be positive")


@dataclass(frozen=True)
class AllocatorConfig:
    mode: str = "balanced"
    cadence_s: float = 900.0
    pso: PsoParams = field(default_factory=PsoParams)

    def __post_init__(self):
        if self.mode not in ("balanced", "pso"):
            raise ConfigError("allocator.mode", "must be 'balanced' or 'pso'")
        if self.cadence_s <= 0:
            raise ConfigError("allocator.cadence_s", "must be positive")


@dataclass(frozen=True)
class LoadConfig:
    source: str = "synthetic"
    csv_path: str | None = None
    synth: SynthLoadSpec = field(default_factory=SynthLoadSpec)
    seed: int = 1

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("load.seed", f"must be >= 0, got {self.seed}")
        if self.source not in ("synthetic", "csv"):
            raise ConfigError("load.source", "must be 'synthetic' or 'csv'")
        if self.source == "csv":
            if not self.csv_path:
                raise ConfigError("load.csv_path", "required for csv source")
            if not os.path.exists(self.csv_path):
                raise ConfigError("load.csv_path",
                                  f"file not found: {self.csv_path}")


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    formats: tuple[str, ...] = ("csv",)

    def __post_init__(self):
        for f in self.formats:
            if f not in ("csv", "json"):
                raise ConfigError("output.formats", f"unknown format {f!r}")


@dataclass(frozen=True)
class RunConfig:
    plant: PlantConfig
    schedule: ScheduleConfig
    allocator: AllocatorConfig
    load: LoadConfig
    output: OutputConfig
    raw: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.schedule.power_depth_w > self.plant.total_rated_power_w + 1e-6:
            raise ConfigError(
                "schedule.power_depth_w",
                "power depth exceeds total plant rated power")

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()


def _get(d: dict, key: str, default):
    return d.get(key, default) if isinstance(d, dict) else default


def _get_int(d: dict, key: str, default: int, name: str) -> int:
    """An integer field: a JSON integer, or a number with an integral value.

    Strings, booleans and fractional values are rejected rather than
    coerced or truncated; the error names the dotted field.
    """
    raw = _get(d, key, default)
    if isinstance(raw, bool) or not (
            isinstance(raw, int) or isinstance(raw, float) and raw.is_integer()):
        raise ConfigError(name, f"must be an integer, got {raw!r}")
    return int(raw)


def _build_pso(d: dict) -> PsoParams:
    """PsoParams from its config section; defaults and types come from the
    dataclass, and every rejection names the dotted field."""
    kwargs = {}
    for f in fields(PsoParams):
        name = f"allocator.pso.{f.name}"
        if isinstance(f.default, int):
            kwargs[f.name] = _get_int(d, f.name, f.default, name)
            continue
        raw = _get(d, f.name, f.default)
        try:
            kwargs[f.name] = float(raw)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(name, f"must be a finite number, got {raw!r}") from None
    try:
        return PsoParams(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"allocator.pso.{exc.field}", str(exc)) from None


def _build_cluster(d: dict) -> ClusterParams:
    cell_d = _get(d, "cell", {})
    cell = CellParams(
        r_ohm=_get(cell_d, "r_ohm", 0.0232),
        r_pol=_get(cell_d, "r_pol", 0.0185),
        c_pol=_get(cell_d, "c_pol", 12091.0),
        capacity_ah=_get(cell_d, "capacity_ah", 12.5),
        ocv=OcvCoeffs(tuple(_get(cell_d, "ocv_coeffs",
                                 (2.484, 2.608, -5.252, 3.603)))),
    )
    return ClusterParams(
        cell=cell,
        n_series=_get_int(d, "n_series", 200, "plant.cluster.n_series"),
        n_parallel=_get_int(d, "n_parallel", 24, "plant.cluster.n_parallel"),
        rated_power_w=_get(d, "rated_power_w", 50_000.0),
        rated_energy_wh=_get(d, "rated_energy_wh", 200_000.0),
        dc_bus_voltage_v=_get(d, "dc_bus_voltage_v", 700.0),
        dcdc_coeffs=PcsEfficiencyCoeffs(tuple(_get(
            d, "dcdc_coeffs", (0.7868, 0.7955, -2.073, 2.137, -0.8137)))),
        acdc_coeffs=PcsEfficiencyCoeffs(tuple(_get(
            d, "acdc_coeffs", (0.7868, 0.7955, -2.073, 2.137, -0.8137)))),
    )


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig.

    Raises ConfigError naming the violated field.
    """
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    plant_d = _get(doc, "plant", {})
    tf_d = _get(plant_d, "transformer", {})
    transformer = TransformerParams(
        no_load_loss_w=_get(tf_d, "no_load_loss_w", 5_000.0),
        rated_load_loss_w=_get(tf_d, "rated_load_loss_w", 35_000.0),
        rated_power_w=_get(tf_d, "rated_power_w", 6_300_000.0),
    )
    plant = uniform_plant_config(
        _get_int(plant_d, "n_clusters", 100, "plant.n_clusters"),
        _build_cluster(_get(plant_d, "cluster", {})),
        transformer=transformer,
        dt_s=float(_get(plant_d, "dt_s", 60.0)),
        soc_min=float(_get(plant_d, "soc_min", 0.03)),
        soc_max=float(_get(plant_d, "soc_max", 0.97)),
        initial_soc=float(_get(plant_d, "initial_soc", 0.5)),
    )
    sched_d = _get(doc, "schedule", {})
    schedule = ScheduleConfig(
        power_depth_w=float(_get(sched_d, "power_depth_w", 5e6)),
        rated_energy_wh=float(_get(sched_d, "rated_energy_wh", 10e6)),
        method=_get(sched_d, "method", "improved"),
        initial_plan_energy_wh=float(_get(sched_d, "initial_plan_energy_wh", 0.0)),
    )
    alloc_d = _get(doc, "allocator", {})
    pso_d = _get(alloc_d, "pso", {})
    allocator = AllocatorConfig(
        mode=_get(alloc_d, "mode", "balanced"),
        cadence_s=float(_get(alloc_d, "cadence_s", 900.0)),
        pso=_build_pso(pso_d),
    )
    load_d = _get(doc, "load", {})
    synth_d = _get(load_d, "synth", {})
    synth = SynthLoadSpec(
        base_w=float(_get(synth_d, "base_w", 30e6)),
        valley_depth_w=float(_get(synth_d, "valley_depth_w", 9e6)),
        valley_hour=float(_get(synth_d, "valley_hour", 3.5)),
        valley_sigma_h=float(_get(synth_d, "valley_sigma_h", 3.0)),
        morning_peak_w=float(_get(synth_d, "morning_peak_w", 2.5e6)),
        morning_hour=float(_get(synth_d, "morning_hour", 10.5)),
        morning_sigma_h=float(_get(synth_d, "morning_sigma_h", 1.5)),
        evening_peak_w=float(_get(synth_d, "evening_peak_w", 6e6)),
        evening_hour=float(_get(synth_d, "evening_hour", 19.5)),
        evening_sigma_h=float(_get(synth_d, "evening_sigma_h", 1.2)),
        noise_rel=float(_get(synth_d, "noise_rel", 0.01)),
        noise_ar1=float(_get(synth_d, "noise_ar1", 0.8)),
        day_jitter=float(_get(synth_d, "day_jitter", 0.08)),
        weekend_factor=float(_get(synth_d, "weekend_factor", 0.93)),
        seasonal_amplitude=float(_get(synth_d, "seasonal_amplitude", 0.05)),
        dt_s=float(_get(synth_d, "dt_s", _get(plant_d, "dt_s", 60.0))),
        days=_get_int(synth_d, "days", 1, "load.synth.days"),
    )
    load = LoadConfig(
        source=_get(load_d, "source", "synthetic"),
        csv_path=_get(load_d, "csv_path", None),
        synth=synth,
        seed=_get_int(load_d, "seed", 1, "load.seed"),
    )
    out_d = _get(doc, "output", {})
    output = OutputConfig(
        dir=_get(out_d, "dir", "out"),
        formats=tuple(_get(out_d, "formats", ["csv"])),
    )
    return RunConfig(plant=plant, schedule=schedule, allocator=allocator,
                     load=load, output=output, raw=doc)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    return parse_config(doc)
