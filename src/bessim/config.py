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
from .losses import (
    CellParams,
    OcvCoeffs,
    PcsEfficiencyCoeffs,
    TransformerParams,
)
from .plant import (ClusterParams, PlantConfig, finite_float,
                    uniform_plant_config)
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
        if not 0.0 <= self.initial_plan_energy_wh <= self.rated_energy_wh:
            raise ConfigError("schedule.initial_plan_energy_wh",
                              "must lie in [0, schedule.rated_energy_wh]")


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
            if os.path.isdir(self.csv_path):
                raise ConfigError("load.csv_path",
                                  f"is a directory: {self.csv_path}")


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    formats: tuple[str, ...] = ("csv",)

    def __post_init__(self):
        if not self.formats:
            raise ConfigError("output.formats", "must be a non-empty list")
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
        if (self.schedule.power_depth_w
                > 1.2 * self.plant.transformer.rated_power_w):
            raise ConfigError("schedule.power_depth_w", "exceeds 1.2 x "
                              "plant.transformer.rated_power_w (overload)")

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()


def _section(d: dict, key: str, name: str) -> dict:
    """Sub-section key of config section d: a JSON object, or {} when the
    key is absent. Anything else is rejected with the dotted name."""
    raw = d.get(key, {})
    if not isinstance(raw, dict):
        raise ConfigError(name, f"must be a JSON object, got {raw!r}")
    return raw


def _check_keys(d: dict, prefix: str, allowed) -> None:
    """Reject the first key of section d outside allowed, named as
    prefix.key, so a misspelt key never silently takes its default."""
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{prefix}.{key}" if prefix else key,
                              "unknown key")


def _integer(raw, name: str) -> int:
    """An integer field: a JSON integer, or a number with an integral value.

    Strings, booleans and fractional values are rejected rather than
    coerced or truncated; the error names the dotted field.
    """
    if isinstance(raw, bool) or not (
            isinstance(raw, int) or isinstance(raw, float) and raw.is_integer()):
        raise ConfigError(name, f"must be an integer, got {raw!r}")
    return int(raw)


def _finite(raw, name: str) -> float:
    """raw as a float when it is a finite JSON number; otherwise a
    ConfigError naming the dotted field. Strings and booleans are rejected
    rather than coerced, and so are NaN and the infinities."""
    value = finite_float(raw)
    if value is None:
        raise ConfigError(name, f"must be a finite number, got {raw!r}")
    return value


def _string(raw, name: str) -> str:
    """raw when it is a JSON string; otherwise a ConfigError naming the
    dotted field, so that a number is never taken as a path or a file
    descriptor."""
    if isinstance(raw, str):
        return raw
    raise ConfigError(name, f"must be a string, got {raw!r}")


def _get_list(d: dict, key: str, default: tuple, name: str, item) -> tuple:
    """A JSON array (a coefficient list, or output.formats) whose entries
    are each checked by item, _finite or _string, and named by index."""
    raw = d.get(key, default)
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(name, f"must be a JSON array, got {raw!r}")
    return tuple(item(v, f"{name}[{i}]") for i, v in enumerate(raw))


def _scalars(cls, d: dict, prefix: str, sections=(), **defaults) -> dict:
    """Keyword arguments for the integer, float and string fields of
    dataclass cls from its config section d. Defaults come from the
    dataclass unless given here; integer fields go through _integer, float
    fields through _finite, string fields through _string, and each error
    names the field as prefix.name. The section's other keys are the
    sub-sections and lists the caller reads itself, named in sections; any
    key that is neither is rejected."""
    kwargs = {}
    for f in fields(cls):
        default = defaults.get(f.name, f.default)
        if isinstance(default, bool) or not isinstance(default,
                                                       (int, float, str)):
            continue
        check = (_string if isinstance(default, str)
                 else _integer if isinstance(default, int) else _finite)
        kwargs[f.name] = check(d.get(f.name, default), f"{prefix}.{f.name}")
    _check_keys(d, prefix, kwargs.keys() | set(sections))
    return kwargs


def _build(make, prefix: str, *args, **kwargs):
    """make(*args, **kwargs) for the config section named prefix; a
    DomainError or ConfigError its checks raise is re-raised as a
    ConfigError naming the dotted field prefix.field, or prefix itself when
    the error names no field."""
    try:
        return make(*args, **kwargs)
    except (DomainError, ConfigError) as exc:
        name = f"{prefix}.{exc.field}" if exc.field else prefix
        reason = exc.reason if isinstance(exc, ConfigError) else str(exc)
        raise ConfigError(name, reason) from None


def _build_cluster(d: dict) -> ClusterParams:
    cell_d = _section(d, "cell", "plant.cluster.cell")
    ocv = "plant.cluster.cell.ocv_coeffs"
    cell = _build(
        CellParams, "plant.cluster.cell", ocv=_build(OcvCoeffs, ocv, _get_list(
            cell_d, "ocv_coeffs", OcvCoeffs.b, ocv, _finite)),
        **_scalars(CellParams, cell_d, "plant.cluster.cell", ("ocv_coeffs",)))
    pcs = {key: _build(PcsEfficiencyCoeffs, f"plant.cluster.{key}", _get_list(
               d, key, PcsEfficiencyCoeffs.a, f"plant.cluster.{key}", _finite))
           for key in ("acdc_coeffs", "dcdc_coeffs")}
    return _build(ClusterParams, "plant.cluster", cell=cell, **pcs,
                  **_scalars(ClusterParams, d, "plant.cluster",
                             ("cell", *pcs)))


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig.

    Raises ConfigError naming the violated field, also for an unknown key
    and for a section that is not a JSON object.
    """
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    _check_keys(doc, "", ("plant", "schedule", "allocator", "load", "output"))
    plant_d = _section(doc, "plant", "plant")
    transformer = _build(TransformerParams, "plant.transformer", **_scalars(
        TransformerParams,
        _section(plant_d, "transformer", "plant.transformer"),
        "plant.transformer"))
    n_clusters = _integer(plant_d.get("n_clusters", 100), "plant.n_clusters")
    if n_clusters < 1:
        raise ConfigError("plant.n_clusters", "must be at least 1")
    plant = _build(
        uniform_plant_config, "plant", n_clusters,
        _build_cluster(_section(plant_d, "cluster", "plant.cluster")),
        transformer=transformer,
        **_scalars(PlantConfig, plant_d, "plant",
                   ("n_clusters", "cluster", "transformer")))
    sched_d = _section(doc, "schedule", "schedule")
    schedule = ScheduleConfig(**_scalars(ScheduleConfig, sched_d, "schedule"))
    alloc_d = _section(doc, "allocator", "allocator")
    pso_d = _section(alloc_d, "pso", "allocator.pso")
    allocator = AllocatorConfig(
        pso=_build(PsoParams, "allocator.pso",
                   **_scalars(PsoParams, pso_d, "allocator.pso")),
        **_scalars(AllocatorConfig, alloc_d, "allocator", ("pso",)))
    load_d = _section(doc, "load", "load")
    if load_d.get("csv_path", "") is None:
        load_d = dict(load_d, csv_path="")     # null is unset, as if absent
    synth = _build(SynthLoadSpec, "load.synth", **_scalars(
        SynthLoadSpec, _section(load_d, "synth", "load.synth"), "load.synth",
        dt_s=plant.dt_s))
    load = LoadConfig(
        synth=synth,
        **_scalars(LoadConfig, load_d, "load", ("synth",)))
    out_d = _section(doc, "output", "output")
    output = OutputConfig(
        formats=_get_list(out_d, "formats", OutputConfig.formats,
                          "output.formats", _string),
        **_scalars(OutputConfig, out_d, "output", ("formats",)))
    return RunConfig(plant=plant, schedule=schedule, allocator=allocator,
                     load=load, output=output, raw=doc)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    except RecursionError:
        raise ConfigError("config", "invalid JSON: nested too deeply")
    return parse_config(doc)
