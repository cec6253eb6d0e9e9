from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bessim.analysis
from bessim.analysis import (
    BoxStats,
    DepthSweepReport,
    EfficiencyScatter,
    allocation_matrix_csv,
    box_stats,
    component_ledger_report,
    depth_sweep,
    efficiency_scatter,
    ledger_report_csv,
    metrics_csv,
    scatter_csv,
    sweep_csv,
    sweep_reports_json,
)
from bessim.errors import ConfigError, DomainError
from bessim.plant import E_DC, Plant, replay_steps, uniform_plant_config
from bessim.profiles import SynthLoadSpec, synth_load
from bessim.scheduler import ShavingMetrics
from bessim.simulate import COMPONENT_ORDER, run_simulation


def small_run(days=1, alloc_mode="balanced", seed=7):
    spec = SynthLoadSpec(days=days, dt_s=300.0, base_w=1.2e6,
                         valley_depth_w=0.3e6, valley_sigma_h=1.5,
                         morning_peak_w=0.0, evening_peak_w=0.3e6,
                         evening_sigma_h=0.8, noise_rel=0.0, day_jitter=0.0)
    profile = synth_load(spec, seed)
    plant = Plant(uniform_plant_config(4, dt_s=300.0))
    return run_simulation(plant, profile, power_depth_w=200e3,
                          rated_energy_wh=800e3, alloc_mode=alloc_mode)


class TestBoxStats:
    def test_interpolated_quartiles(self):
        s = box_stats(np.arange(1, 101))
        assert s.q1 == pytest.approx(25.75)
        assert s.median == pytest.approx(50.5)
        assert s.q3 == pytest.approx(75.25)
        assert s.min == 1 and s.max == 100

    def test_single_value(self):
        s = box_stats([3.0])
        assert astuple(s) == (3.0, 3.0, 3.0, 3.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            box_stats([])


class TestDepthSweep:
    def test_reports_cover_requested_depths(self):
        spec = SynthLoadSpec(days=1, dt_s=300.0, noise_rel=0.0,
                             day_jitter=0.0)
        profile = synth_load(spec, 1)
        reports = depth_sweep(profile, [1e6, 2e6])
        assert [r.depth_w for r in reports] == [1e6, 2e6]
        assert [r.cluster_count for r in reports] == [20, 40]
        for r in reports:
            assert r.e_loss_wh == pytest.approx(r.e_ss_wh + r.e_ts_wh)
            assert r.e_ss_wh > 0

    def test_non_multiple_depth_rejected(self):
        profile = synth_load(SynthLoadSpec(days=1, dt_s=300.0), 1)
        with pytest.raises(ConfigError) as e:
            depth_sweep(profile, [75e3])
        assert e.value.field == "depths"

    def test_every_depth_checked_before_any_runs(self, monkeypatch):
        runs = []
        monkeypatch.setattr(bessim.analysis, "run_simulation",
                            lambda *args, **kwargs: runs.append(args))
        profile = synth_load(SynthLoadSpec(days=1, dt_s=300.0), 1)
        for depths in ([5e6, 75e3], [5e6, -5e6]):
            with pytest.raises(ConfigError) as e:
                depth_sweep(profile, depths)
            assert e.value.field == "depths"
        assert runs == []

    def test_csv_row_matches_header_width(self):
        profile = synth_load(SynthLoadSpec(days=1, dt_s=300.0,
                                           noise_rel=0.0, day_jitter=0.0), 1)
        r = depth_sweep(profile, [1e6])[0]
        header, row = sweep_csv([r]).splitlines()
        assert len(row.split(",")) == len(header.split(","))
        # and the json form serializes
        assert "ts_reduction_fraction" in sweep_reports_json([r])


class TestEfficiencyScatter:
    def test_points_below_unity_and_split_by_direction(self):
        res = small_run()
        sc = efficiency_scatter(res, bin_width_w=50e3)
        for direction in ("charge", "discharge"):
            pts = sc[direction].points
            assert pts.shape[0] > 0
            assert np.all(pts[:, 1] < 1.0)
            assert np.all(pts[:, 1] > 0.0)
            assert sc[direction].median_curve.shape[0] >= 1

    def test_band_has_spread_from_transient_state(self):
        res = small_run()
        pts = np.concatenate([sc.points for sc in
                              efficiency_scatter(res).values()])
        # the same port power occurs with different polarization states,
        # so efficiencies form a band, not a curve
        assert pts[:, 1].std() > 1e-4

    def test_idle_run_rejected(self):
        profile = synth_load(SynthLoadSpec(days=1, dt_s=300.0,
                                           noise_rel=0.0, day_jitter=0.0), 1)
        plant = Plant(uniform_plant_config(2, dt_s=300.0))
        res = run_simulation(plant, profile, power_depth_w=5e6,
                             rated_energy_wh=400e3)
        res.demand_w[:] = 0.0
        with pytest.raises(DomainError):
            efficiency_scatter(res)

    def test_scatter_csv_sections(self):
        res = small_run()
        text = scatter_csv(efficiency_scatter(res)["charge"])
        assert text.startswith("power_w,efficiency\n")
        assert "bin_center_w,median_efficiency" in text


# every float64, with the edge values drawn often: NaN, +-inf, -0.0 and
# subnormals
EDGE_FLOATS = st.floats(width=64) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, -1e-310])


def float_tables(cols):
    """Float64 tables of 0-12 rows and the given column count strategy."""
    return st.integers(0, 12).flatmap(lambda n: cols.flatmap(
        lambda m: hnp.arrays(np.float64, (n, m), elements=EDGE_FLOATS)))


def scatter_csv_by_rows(scatter):
    lines = ["power_w,efficiency"]
    for p, e in scatter.points:
        lines.append(f"{p:.10g},{e:.10g}")
    lines.append("")
    lines.append("bin_center_w,median_efficiency")
    for p, e in scatter.median_curve:
        lines.append(f"{p:.10g},{e:.10g}")
    return "\n".join(lines) + "\n"


def allocation_matrix_csv_by_rows(times_s, K):
    m = K.shape[1]
    header = "time_s," + ",".join(f"k_{j}" for j in range(m))
    lines = [header]
    for t, row in zip(times_s, K):
        lines.append(f"{t:.10g}," + ",".join(f"{v:.8g}" for v in row))
    return "\n".join(lines) + "\n"


METRICS_HEADER = ("day,method,cr,rr,cur,power_utilization,equivalent_cycles,"
                  "e_chr_wh,e_dis_wh,e_val_wh,e_pek_wh")


def metrics_row_by_fstring(day, method, m):
    """One metrics.csv/compare.csv row as an f-string: the oracle of
    metrics_csv."""
    vals = [m.cr, m.rr, m.cur, m.power_utilization, m.equivalent_cycles,
            m.e_chr_wh, m.e_dis_wh, m.e_val_wh, m.e_pek_wh]
    return f"{day},{method}," + ",".join(f"{v:.10g}" for v in vals)


SWEEP_HEADER = ("depth_w,cluster_count,e_ss_wh,e_ts_wh,e_loss_wh,"
                "ts_reduction_fraction,share_tfmr,share_acdc,share_dcdc,"
                "share_bat_ohmic,share_bat_polarization,"
                "p_clu_min,p_clu_q1,p_clu_median,p_clu_q3,p_clu_max,"
                "dp_dt_min,dp_dt_q1,dp_dt_median,dp_dt_q3,dp_dt_max")


def sweep_row_by_fstring(r):
    """One sweep.csv row as an f-string: the oracle of sweep_csv."""
    s, p, dp = r.component_shares, r.p_clu_stats, r.dp_dt_stats
    vals = [r.depth_w, r.cluster_count, r.e_ss_wh, r.e_ts_wh, r.e_loss_wh,
            r.ts_reduction_fraction, s["transformer"], s["acdc"], s["dcdc"],
            s["battery_ohmic"], s["battery_polarization"],
            p.min, p.q1, p.median, p.q3, p.max,
            dp.min, dp.q1, dp.median, dp.q3, dp.max]
    return ",".join(f"{v:.10g}" for v in vals)


BOX_STATS = st.builds(BoxStats, *[EDGE_FLOATS] * 5)
SWEEP_REPORTS = st.builds(
    DepthSweepReport, depth_w=EDGE_FLOATS, cluster_count=st.integers(1, 10**9),
    p_clu_stats=BOX_STATS, dp_dt_stats=BOX_STATS, p_loss_stats=BOX_STATS,
    p_ss_stats=BOX_STATS, p_ts_stats=BOX_STATS, e_ss_wh=EDGE_FLOATS,
    e_ts_wh=EDGE_FLOATS, e_loss_wh=EDGE_FLOATS,
    ts_reduction_fraction=EDGE_FLOATS,
    component_shares=st.fixed_dictionaries(
        {name: EDGE_FLOATS for name in COMPONENT_ORDER}))
METRICS_ROWS = st.tuples(st.integers(0, 10**5),
                         st.sampled_from(["improved", "original"]),
                         st.builds(ShavingMetrics, *[EDGE_FLOATS] * 9))


class TestCsvEmitters:
    """The column-formatted emitters write what a row-by-row f-string loop
    writes, for every float64 and for empty tables."""

    @settings(max_examples=200, deadline=None)
    @given(points=float_tables(st.just(2)), curve=float_tables(st.just(2)))
    def test_scatter_csv_matches_the_row_loop(self, points, curve):
        sc = EfficiencyScatter(direction="charge", points=points,
                               median_curve=curve, bin_width_w=1.0)
        assert scatter_csv(sc) == scatter_csv_by_rows(sc)

    @settings(max_examples=200, deadline=None)
    @given(table=float_tables(st.integers(1, 6)))
    def test_allocation_matrix_csv_matches_the_row_loop(self, table):
        times, K = table[:, 0], table[:, 1:]
        assert (allocation_matrix_csv(times, K)
                == allocation_matrix_csv_by_rows(times, K))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(METRICS_ROWS, min_size=1, max_size=12))
    def test_metrics_csv_matches_the_row_formatter(self, rows):
        want = [METRICS_HEADER, *(metrics_row_by_fstring(*r) for r in rows)]
        assert metrics_csv(rows) == "\n".join(want) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(reports=st.lists(SWEEP_REPORTS, min_size=1, max_size=12))
    def test_sweep_csv_matches_the_row_formatter(self, reports):
        want = [SWEEP_HEADER, *map(sweep_row_by_fstring, reports)]
        assert sweep_csv(reports) == "\n".join(want) + "\n"

    def test_no_rows_leave_the_header(self):
        assert metrics_csv([]) == METRICS_HEADER + "\n"
        assert sweep_csv([]) == SWEEP_HEADER + "\n"


class TestComponentLedger:
    def test_shares_sum_to_one(self):
        res = small_run()
        report = component_ledger_report(res)
        share_sum = sum(report["components"][n]["share"]
                        for n in ("transformer", "acdc", "dcdc",
                                  "battery_ohmic", "battery_polarization"))
        assert share_sum == pytest.approx(1.0, abs=1e-9)
        for row in report["components"].values():
            assert 0.0 < row["energy_weighted_efficiency"] < 1.0

    def test_zero_power_steps_leave_only_transformer_loss(self):
        plant = Plant(uniform_plant_config(2, dt_s=300.0))
        p_net, tf_w = plant.transformer_split(0.0)
        # each step's start state and commands, replayed for its energies
        soc, ipol, commands = np.empty((3, 10, 2))
        for i in range(10):
            soc[i], ipol[i] = plant.soc, plant.ipol
            commands[i] = plant.step(p_net, np.array([0.5, 0.5]))
        totals = np.empty((E_DC, 10))
        replay_steps(soc, ipol, commands, plant.params, totals,
                     np.empty(10), np.empty(10, dtype=bool))
        plant.book(totals, np.full(10, tf_w))
        total = plant.cumulative.total_loss_wh
        tf = plant.cumulative.transformer_wh
        assert total == pytest.approx(tf)
        assert tf > 0

    def test_delta_against_baseline(self):
        res = small_run(alloc_mode="balanced")
        base = small_run(alloc_mode="balanced")
        report = component_ledger_report(res, baseline=base)
        assert report["delta_total_loss_wh"] == pytest.approx(0.0, abs=1e-9)
        assert report["components"]["acdc"]["delta_loss_wh"] == pytest.approx(
            0.0, abs=1e-9)

    def test_mismatched_horizons_rejected(self):
        res = small_run(days=1)
        base = small_run(days=2)
        with pytest.raises(DomainError):
            component_ledger_report(res, baseline=base)

    def test_csv_has_total_row(self):
        text = ledger_report_csv(component_ledger_report(small_run()))
        lines = text.strip().split("\n")
        assert lines[0].startswith("component,loss_wh,share")
        assert lines[-1].startswith("total,")


class TestOneLedger:
    """SimulationResult.loss_wh sums each of a run's loss series once
    (np.sum); the ledger report and the depth sweep read those values."""

    def test_reports_read_the_run_totals(self):
        res = small_run()
        losses = res.loss_wh
        assert list(losses) == list(COMPONENT_ORDER)
        assert losses["acdc"] == float(np.sum(res.acdc_wh))
        report = component_ledger_report(res)
        for name in COMPONENT_ORDER:
            assert report["components"][name]["loss_wh"] == losses[name]
        assert report["components"]["battery"]["loss_wh"] == (
            losses["battery_ohmic"] + losses["battery_polarization"])
        assert report["total_loss_wh"] == res.total_loss_wh

        runs = []

        def capture(*args, **kwargs):
            runs.append(run_simulation(*args, **kwargs))
            return runs[-1]

        profile = synth_load(SynthLoadSpec(days=1, dt_s=300.0,
                                           noise_rel=0.0, day_jitter=0.0), 1)
        with mock.patch.object(bessim.analysis, "run_simulation", capture):
            reports = depth_sweep(profile, [1e6, 2e6])
        assert len(runs) == len(reports) == 2
        for r, run in zip(reports, runs):
            losses, total = run.loss_wh, run.total_loss_wh
            assert r.component_shares == {
                name: losses[name] / total for name in COMPONENT_ORDER}
            assert r.e_loss_wh == (losses["battery_ohmic"]
                                   + losses["battery_polarization"])
