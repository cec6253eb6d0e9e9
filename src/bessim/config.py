"""Run configuration: a single JSON document, validated into dataclasses.

All powers are in W, energies in Wh, times in seconds or ISO-8601. Every
random quantity takes an explicit seed; nothing draws wall-clock entropy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields

from .allocator import PsoParams
from .errors import ConfigError, DomainError
from .losses import (
    DEFAULT_OCV_COEFFS,
    DEFAULT_PCS_COEFFS,
    CellParams,
    OcvCoeffs,
    PcsEfficiencyCoeffs,
    TransformerParams,
)
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
    csv_path: str = ""
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


def _finite(raw, name: str) -> float:
    """raw as a float when it is a finite JSON number; otherwise a
    ConfigError naming the dotted field. Strings and booleans are rejected
    rather than coerced, and so are NaN and the infinities."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            value = float(raw)
        except OverflowError:           # an integer beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise ConfigError(name, f"must be a finite number, got {raw!r}")


def _get_float(d: dict, key: str, default: float, name: str) -> float:
    """A float field: any finite JSON number (see _finite)."""
    return _finite(_get(d, key, default), name)


def _get_floats(d: dict, key: str, default: tuple, name: str) -> tuple:
    """A coefficient list: a JSON array of finite numbers, each checked
    like a float field and named by its index."""
    raw = _get(d, key, default)
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(name, f"must be a list of numbers, got {raw!r}")
    return tuple(_finite(v, f"{name}[{i}]") for i, v in enumerate(raw))


def _string(raw, name: str) -> str:
    """raw when it is a JSON string; otherwise a ConfigError naming the
    dotted field, so that a number is never taken as a path or a file
    descriptor."""
    if isinstance(raw, str):
        return raw
    raise ConfigError(name, f"must be a string, got {raw!r}")


def _get_str(d: dict, key: str, default: str, name: str) -> str:
    """A string field (see _string)."""
    return _string(_get(d, key, default), name)


def _get_strs(d: dict, key: str, default: tuple, name: str) -> tuple:
    """A JSON array of strings, each checked like a string field and named
    by its index."""
    raw = _get(d, key, default)
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(name, f"must be a list of strings, got {raw!r}")
    return tuple(_string(v, f"{name}[{i}]") for i, v in enumerate(raw))


def _scalars(cls, d: dict, prefix: str, **defaults) -> dict:
    """Keyword arguments for the integer, float and string fields of
    dataclass cls from its config section d. Defaults come from the
    dataclass unless given here; integer fields go through _get_int, float
    fields through _get_float, string fields through _get_str, and each
    error names the field as prefix.name."""
    kwargs = {}
    for f in fields(cls):
        default = defaults.get(f.name, f.default)
        if isinstance(default, bool) or not isinstance(default,
                                                       (int, float, str)):
            continue
        get = (_get_str if isinstance(default, str)
               else _get_int if isinstance(default, int) else _get_float)
        kwargs[f.name] = get(d, f.name, default, f"{prefix}.{f.name}")
    return kwargs


def _build_pso(d: dict) -> PsoParams:
    """PsoParams from its config section; defaults and types come from the
    dataclass, and every rejection names the dotted field."""
    try:
        return PsoParams(**_scalars(PsoParams, d, "allocator.pso"))
    except DomainError as exc:
        raise ConfigError(f"allocator.pso.{exc.field}", str(exc)) from None


def _build_cluster(d: dict) -> ClusterParams:
    cell_d = _get(d, "cell", {})
    cell = CellParams(
        ocv=OcvCoeffs(_get_floats(cell_d, "ocv_coeffs", DEFAULT_OCV_COEFFS,
                                  "plant.cluster.cell.ocv_coeffs")),
        **_scalars(CellParams, cell_d, "plant.cluster.cell"))
    return ClusterParams(
        cell=cell,
        dcdc_coeffs=PcsEfficiencyCoeffs(_get_floats(
            d, "dcdc_coeffs", DEFAULT_PCS_COEFFS, "plant.cluster.dcdc_coeffs")),
        acdc_coeffs=PcsEfficiencyCoeffs(_get_floats(
            d, "acdc_coeffs", DEFAULT_PCS_COEFFS, "plant.cluster.acdc_coeffs")),
        **_scalars(ClusterParams, d, "plant.cluster"))


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig.

    Raises ConfigError naming the violated field.
    """
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    plant_d = _get(doc, "plant", {})
    transformer = TransformerParams(**_scalars(
        TransformerParams, _get(plant_d, "transformer", {}),
        "plant.transformer"))
    plant = uniform_plant_config(
        _get_int(plant_d, "n_clusters", 100, "plant.n_clusters"),
        _build_cluster(_get(plant_d, "cluster", {})),
        transformer=transformer,
        **_scalars(PlantConfig, plant_d, "plant"))
    sched_d = _get(doc, "schedule", {})
    schedule = ScheduleConfig(**_scalars(ScheduleConfig, sched_d, "schedule"))
    alloc_d = _get(doc, "allocator", {})
    allocator = AllocatorConfig(
        pso=_build_pso(_get(alloc_d, "pso", {})),
        **_scalars(AllocatorConfig, alloc_d, "allocator"))
    load_d = _get(doc, "load", {})
    if _get(load_d, "csv_path", "") is None:
        load_d = dict(load_d, csv_path="")     # null is unset, as if absent
    synth = SynthLoadSpec(**_scalars(
        SynthLoadSpec, _get(load_d, "synth", {}), "load.synth",
        dt_s=plant.dt_s))
    load = LoadConfig(
        synth=synth,
        **_scalars(LoadConfig, load_d, "load"))
    out_d = _get(doc, "output", {})
    output = OutputConfig(
        formats=_get_strs(out_d, "formats", OutputConfig.formats,
                          "output.formats"),
        **_scalars(OutputConfig, out_d, "output"))
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
