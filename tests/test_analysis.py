from unittest import mock

import numpy as np
import pytest

import bessim.analysis
from bessim.analysis import (
    box_stats,
    component_ledger_report,
    depth_sweep,
    efficiency_scatter,
    ledger_report_csv,
    scatter_csv,
    sweep_reports_json,
)
from bessim.errors import ConfigError, DomainError
from bessim.plant import Plant, uniform_plant_config
from bessim.profiles import SynthLoadSpec, synth_load
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
        assert s.as_tuple() == (3.0, 3.0, 3.0, 3.0, 3.0)

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

    def test_csv_row_matches_header_width(self):
        profile = synth_load(SynthLoadSpec(days=1, dt_s=300.0,
                                           noise_rel=0.0, day_jitter=0.0), 1)
        r = depth_sweep(profile, [1e6])[0]
        n_cols = len(r.CSV_HEADER.split(","))
        assert len(r.csv_row().split(",")) == n_cols
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
        totals = np.column_stack([plant.step(p_net, np.array([0.5, 0.5]))[0]
                                  for _ in range(10)])
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
