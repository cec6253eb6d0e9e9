"""Statistical post-processing of simulation runs.

Power-depth sweeps, box statistics of cluster port power and its rate of
change, steady/transient loss-energy proportions, per-component loss
shares and power-efficiency scatter with binned median curves. Reports
are plain data ready for CSV/JSON emission; no plotting here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import ScheduleConfig
from .errors import ConfigError, DomainError
from .plant import (ClusterParams, Plant, PlantConfig, TransformerParams,
                    uniform_plant_config)
from .scheduler import LoadProfile, ShavingMetrics
from .simulate import COMPONENT_ORDER, SimulationResult, run_simulation

OPERATING_POWER_THRESHOLD_W = 1.0  # below this a cluster counts as idle


@dataclass(frozen=True)
class BoxStats:
    min: float
    q1: float
    median: float
    q3: float
    max: float


def box_stats(series) -> BoxStats:
    """Five-number summary with linearly interpolated quartiles."""
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise DomainError("cannot summarize an empty series")
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return BoxStats(min=float(arr.min()), q1=float(q1), median=float(med),
                    q3=float(q3), max=float(arr.max()))


@dataclass
class DepthSweepReport:
    depth_w: float
    cluster_count: int
    p_clu_stats: BoxStats
    dp_dt_stats: BoxStats
    p_loss_stats: BoxStats
    p_ss_stats: BoxStats
    p_ts_stats: BoxStats
    e_ss_wh: float
    e_ts_wh: float
    e_loss_wh: float
    ts_reduction_fraction: float
    component_shares: dict[str, float]


@dataclass
class EfficiencyScatter:
    direction: str                 # "charge" | "discharge"
    points: np.ndarray             # (N, 2): |power W|, efficiency
    median_curve: np.ndarray       # (bins, 2): bin center W, median efficiency
    bin_width_w: float


def sweep_report_from_result(result: SimulationResult,
                             depth_w: float) -> DepthSweepReport:
    """Depth-sweep statistics of one run. Sweeps run balanced allocation
    over identical clusters, so every cluster carries the same share: the
    per-cluster loss powers (W) are the aggregates divided by the cluster
    count, and the port power is cluster 0's, recorded directly."""
    m = result.plant.n_clusters
    cluster_h = m * (result.dt_s / 3600.0)
    p_clu = result.cluster0_dc_w
    p_loss = (result.ohmic_wh + result.polarization_wh) / cluster_h
    p_ss = result.ss_wh / cluster_h
    p_ts = result.ts_wh / cluster_h
    operating = np.abs(p_clu) > OPERATING_POWER_THRESHOLD_W
    dp_dt = np.diff(p_clu) / result.dt_s
    dp_operating = dp_dt[operating[1:] | operating[:-1]]
    if not np.any(operating):
        raise DomainError("no operating samples at this depth")

    e_ss = float(result.ss_wh.sum())
    e_ts = float(result.ts_wh.sum())
    losses = result.loss_wh
    e_loss = losses["battery_ohmic"] + losses["battery_polarization"]
    total = sum(losses.values())
    shares = {name: losses[name] / total for name in COMPONENT_ORDER}
    return DepthSweepReport(
        depth_w=depth_w, cluster_count=m,
        p_clu_stats=box_stats(p_clu[operating]),
        dp_dt_stats=box_stats(dp_operating if dp_operating.size else np.zeros(1)),
        p_loss_stats=box_stats(p_loss[operating]),
        p_ss_stats=box_stats(p_ss[operating]),
        p_ts_stats=box_stats(p_ts[operating]),
        e_ss_wh=e_ss, e_ts_wh=e_ts, e_loss_wh=e_loss,
        ts_reduction_fraction=abs(e_ts) / e_ss if e_ss > 0 else math.nan,
        component_shares=shares)


def depth_sweep(profile: LoadProfile, depths_w: list[float],
                cluster: ClusterParams | None = None,
                soc_min: float = PlantConfig.soc_min,
                soc_max: float = PlantConfig.soc_max,
                initial_soc: float = PlantConfig.initial_soc,
                method: str = ScheduleConfig.method) -> list[DepthSweepReport]:
    """Run the horizon once per depth with proportionally many clusters.

    Cluster count scales with depth so the per-cluster power share stays
    constant; reports therefore reflect load-shape changes, not plant size.
    The transformer is rated at 1.26 x depth, its losses those of
    TransformerParams() scaled by depth / 5 MW (at least 0.2). Every depth
    is checked before any runs.
    """
    cluster = cluster or ClusterParams()
    tf_base = TransformerParams()
    for depth in depths_w:
        if depth <= 0:
            raise ConfigError("depths", "depths must be positive")
        ratio = depth / cluster.rated_power_w
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(
                "depths",
                f"depth {depth:.0f} W is not a multiple of the "
                f"{cluster.rated_power_w:.0f} W cluster rating")
    reports = []
    for depth in depths_w:
        m = int(round(depth / cluster.rated_power_w))
        scale = max(depth / 5e6, 0.2)
        tf = TransformerParams(
            no_load_loss_w=tf_base.no_load_loss_w * scale,
            rated_load_loss_w=tf_base.rated_load_loss_w * scale,
            rated_power_w=1.26 * depth)
        cfg = uniform_plant_config(
            m, cluster, transformer=tf, dt_s=profile.dt_s,
            soc_min=soc_min, soc_max=soc_max, initial_soc=initial_soc)
        plant = Plant(cfg)
        result = run_simulation(
            plant, profile, power_depth_w=depth,
            rated_energy_wh=m * cluster.rated_energy_wh, method=method)
        reports.append(sweep_report_from_result(result, depth))
    return reports


def efficiency_scatter(result: SimulationResult,
                       bin_width_w: float = 100_000.0) -> dict[str, EfficiencyScatter]:
    """Per-step power-efficiency operating points split by direction.

    Charging efficiency is battery-stored over AC-drawn energy;
    discharging is AC-delivered over battery-released energy.
    """
    if not np.any(result.demand_w != 0):
        raise DomainError("simulation contains no nonzero-power steps")
    out = {}
    chg = (result.stored_wh > 0) & (result.grid_wh > 0)
    dis = (result.stored_wh < 0) & (result.grid_wh < 0)
    step_h = result.dt_s / 3600.0
    for direction, mask, eff in (
        ("charge", chg, result.stored_wh[chg] / result.grid_wh[chg]),
        ("discharge", dis, np.abs(result.grid_wh[dis])
                           / np.abs(result.stored_wh[dis])),
    ):
        power = np.abs(result.grid_wh[mask]) / step_h
        pts = np.stack([power, eff], axis=1) if power.size else np.zeros((0, 2))
        out[direction] = EfficiencyScatter(
            direction=direction, points=pts,
            median_curve=_median_curve(pts, bin_width_w),
            bin_width_w=bin_width_w)
    return out


def _median_curve(points: np.ndarray, bin_width_w: float) -> np.ndarray:
    if points.shape[0] == 0:
        return np.zeros((0, 2))
    idx = np.floor(points[:, 0] / bin_width_w).astype(int)
    rows = []
    for b in np.unique(idx):
        sel = points[idx == b, 1]
        rows.append(((b + 0.5) * bin_width_w, float(np.median(sel))))
    return np.asarray(rows)


def _csv_table(header: str, fmt: str, *cols) -> str:
    """A header line, then one line per row: fmt formatted with the row's
    entries of cols (arrays or sequences of equal length); no columns, no
    rows."""
    rows = map(fmt.format, *(c.tolist() if isinstance(c, np.ndarray) else c
                             for c in cols)) if cols else ()
    return "\n".join([header, *rows]) + "\n"


def metrics_csv(rows) -> str:
    """Per-day shaving metrics of (day, method, ShavingMetrics) rows: day,
    method, then the ShavingMetrics fields in order."""
    names = [f.name for f in fields(ShavingMetrics)]
    table = ((day, method, *(getattr(m, name) for name in names))
             for day, method, m in rows)
    return _csv_table(",".join(["day", "method", *names]),
                      "{},{}," + ",".join(["{:.10g}"] * len(names)),
                      *zip(*table))


def sweep_csv(reports: list[DepthSweepReport]) -> str:
    """One row per depth: its scalars, the loss shares in COMPONENT_ORDER,
    then the box stats of the port power and of its rate of change."""
    scalars = ("depth_w", "cluster_count", "e_ss_wh", "e_ts_wh", "e_loss_wh",
               "ts_reduction_fraction")
    stats = [f.name for f in fields(BoxStats)]
    header = [*scalars, "share_tfmr", "share_acdc", "share_dcdc",
              "share_bat_ohmic", "share_bat_polarization",
              *(f"p_clu_{s}" for s in stats), *(f"dp_dt_{s}" for s in stats)]
    rows = ((*(getattr(r, name) for name in scalars),
             *(r.component_shares[name] for name in COMPONENT_ORDER),
             *(getattr(r.p_clu_stats, name) for name in stats),
             *(getattr(r.dp_dt_stats, name) for name in stats))
            for r in reports)
    return _csv_table(",".join(header), ",".join(["{:.10g}"] * len(header)),
                      *zip(*rows))


def scatter_csv(scatter: EfficiencyScatter) -> str:
    return (_csv_table("power_w,efficiency", "{:.10g},{:.10g}",
                       *scatter.points.T) + "\n"
            + _csv_table("bin_center_w,median_efficiency", "{:.10g},{:.10g}",
                         *scatter.median_curve.T))


def allocation_matrix_csv(times_s: np.ndarray, K: np.ndarray) -> str:
    """Dense allocation time series (T x m) as CSV for heatmap plotting."""
    m = K.shape[1]
    return _csv_table("time_s," + ",".join(f"k_{j}" for j in range(m)),
                      "{:.10g}," + ",".join(["{:.8g}"] * m), times_s, *K.T)


def component_ledger_report(result: SimulationResult,
                            baseline: SimulationResult | None = None) -> dict:
    """Per-component energy loss table with shares and energy-weighted
    efficiencies; delta columns against a baseline run when supplied."""
    if baseline is not None and baseline.n_steps != result.n_steps:
        raise DomainError("runs cover different horizons")
    table = _single_ledger(result)
    if baseline is not None:
        base = _single_ledger(baseline)
        for name in list(table["components"]):
            table["components"][name]["delta_loss_wh"] = (
                table["components"][name]["loss_wh"]
                - base["components"][name]["loss_wh"])
        table["delta_total_loss_wh"] = table["total_loss_wh"] - base["total_loss_wh"]
        table["baseline_total_loss_wh"] = base["total_loss_wh"]
    return table


def _single_ledger(result: SimulationResult) -> dict:
    losses = result.loss_wh
    total = sum(losses.values())
    effs = _component_efficiencies(result, losses)
    losses["battery"] = losses["battery_ohmic"] + losses["battery_polarization"]
    components = {name: {
        "loss_wh": loss,
        "share": loss / total if total > 0 else math.nan,
        "energy_weighted_efficiency": effs[name],
    } for name, loss in losses.items()}
    return {"components": components, "total_loss_wh": total}


def _component_efficiencies(result: SimulationResult,
                            losses: dict[str, float]) -> dict[str, float]:
    """Energy-weighted efficiency: 1 - loss / energy entering the stage,
    the losses as result.loss_wh gives them.

    The entering energy is measured on the upstream side of each stage for
    the step's direction, summed over the run.
    """
    chg = result.grid_wh > 0
    ac_net = result.grid_wh - result.transformer_wh
    tf_in = np.abs(result.grid_wh) + np.where(chg, 0.0, result.transformer_wh)
    acdc_in = np.abs(ac_net) + np.where(chg, 0.0, result.acdc_wh)
    mid = np.abs(ac_net) - np.where(chg, result.acdc_wh, 0.0)
    dcdc_in = mid + np.where(chg, 0.0, result.dcdc_wh)
    bat_loss = result.ohmic_wh + result.polarization_wh
    bat_in = np.where(chg, np.abs(result.stored_wh) + bat_loss,
                      np.abs(result.stored_wh))

    def eff(loss_wh: float, inflow) -> float:
        total_in = float(np.sum(inflow))
        return 1.0 - loss_wh / total_in if total_in > 0 else math.nan

    effs = {name: eff(losses[name], inflow) for name, inflow in zip(
        COMPONENT_ORDER, (tf_in, acdc_in, dcdc_in, bat_in, bat_in))}
    # np.sum of the element-wise sum: ledger.csv prints its bits, which
    # differ from the two per-component sums added
    effs["battery"] = eff(float(np.sum(bat_loss)), bat_in)
    return effs


def ledger_report_csv(report: dict) -> str:
    lines = ["component,loss_wh,share,energy_weighted_efficiency,delta_loss_wh"]
    for name, row in report["components"].items():
        delta = row.get("delta_loss_wh", "")
        delta_s = f"{delta:.10g}" if delta != "" else ""
        lines.append(f"{name},{row['loss_wh']:.10g},{row['share']:.10g},"
                     f"{row['energy_weighted_efficiency']:.10g},{delta_s}")
    lines.append(f"total,{report['total_loss_wh']:.10g},1,,"
                 + (f"{report['delta_total_loss_wh']:.10g}"
                    if "delta_total_loss_wh" in report else ""))
    return "\n".join(lines) + "\n"


def sweep_reports_json(reports: list[DepthSweepReport]) -> str:
    return json.dumps([asdict(r) for r in reports], sort_keys=True, indent=2)
