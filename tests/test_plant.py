import contextlib
import dataclasses
import json
import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bessim.plant
import bessim.simulate
from bessim.errors import ConfigError, DomainError, InfeasiblePowerError
from bessim.losses import (
    OcvCoeffs,
    PcsEfficiencyCoeffs,
    RcState,
    TransformerParams,
    open_circuit_voltage,
    pcs_efficiency,
    steady_state_loss,
    step_polarization,
    transformer_loss,
    transient_loss,
    _efficiency,
    _horner,
)
from bessim.plant import (
    ACDC,
    DCDC,
    E_AC,
    E_DC,
    OHMIC,
    POLARIZATION,
    SS,
    STORED,
    TS,
    WH_PER_J,
    ClusterParams,
    LossBreakdown,
    Plant,
    PlantConfig,
    uniform_plant_config,
    _ParamArrays,
    _advance,
    _command,
    _mean_ocv,
    _step_arrays,
    replay_steps,
)
from bessim.profiles import SynthLoadSpec, synth_load
from bessim.scheduler import LoadProfile, replay_horizon
from bessim.allocator import balanced_allocation, repair
from bessim.simulate import (
    _Steps,
    _cap_one,
    _cap_to_plant,
    _run_general,
    _run_uniform,
    run_simulation,
)


class TestClusterAggregates:
    def test_resistance_and_capacity_scaling(self):
        c = ClusterParams()
        assert c.r_ohm_agg == pytest.approx(0.0232 * 200 / 24)
        assert c.r_ohm_agg == pytest.approx(0.19333, abs=1e-4)
        assert c.r_pol_agg == pytest.approx(0.0185 * 200 / 24)
        assert c.capacity_agg_ah == pytest.approx(300.0)

    def test_time_constant_preserved(self):
        c = ClusterParams()
        c_pol_agg = c.cell.c_pol * c.n_parallel / c.n_series
        assert c.r_pol_agg * c_pol_agg == pytest.approx(c.time_constant_s)

    def test_invalid_layout_rejected(self):
        with pytest.raises(DomainError):
            ClusterParams(n_series=0)


class TestPlantConfig:
    def test_hundred_clusters_total_power(self):
        cfg = uniform_plant_config(100)
        assert cfg.total_rated_power_w == pytest.approx(5e6)

    def test_single_cluster_valid(self):
        cfg = uniform_plant_config(1)
        assert Plant(cfg).n_clusters == 1

    def test_inverted_soc_band_rejected(self):
        with pytest.raises(ConfigError):
            uniform_plant_config(2, soc_min=0.5, soc_max=0.4)

    def test_initial_soc_outside_band_rejected(self):
        with pytest.raises(ConfigError) as e:
            uniform_plant_config(2, initial_soc=0.99)
        assert e.value.field == "initial_soc"

    @pytest.mark.parametrize("dt_s", [7.0, 7000.0, 172_800.0, 0.0, -60.0,
                                      math.inf, math.nan])
    def test_step_not_dividing_a_day_rejected(self, dt_s):
        with pytest.raises(DomainError) as e:
            uniform_plant_config(2, dt_s=dt_s)
        assert e.value.field == "dt_s"

    @pytest.mark.parametrize("dt_s", [1.0, 86_400.0 / 7_000, 3600.0,
                                      86_400.0])
    def test_step_dividing_a_day_accepted(self, dt_s):
        assert uniform_plant_config(2, dt_s=dt_s).dt_s == dt_s


def _step_one(c: ClusterParams, soc: float, ipol: float, p_ac_w: float,
              dt: float):
    """Step one cluster of kind c through the kernel at the default SoC
    band: (soc, ipol, current, truncated, ledger), where the ledger has no
    transformer entry and grid_wh is the cluster's AC-side energy."""
    pp = _ParamArrays((c,), PlantConfig.soc_min, PlantConfig.soc_max, dt)
    soc, ipol, current, truncated, E = _step_arrays(
        np.array([soc]), np.array([ipol]), np.array([p_ac_w]), pp)
    e = E[:, 0].tolist()
    ledger = LossBreakdown(
        acdc_wh=e[ACDC], dcdc_wh=e[DCDC], battery_ohmic_wh=e[OHMIC],
        battery_polarization_wh=e[POLARIZATION], stored_wh=e[STORED],
        grid_wh=e[E_AC])
    return (float(soc[0]), float(ipol[0]), float(current[0]),
            bool(truncated[0]), ledger)


def _book_step(plant: Plant, p_sys_w: float, alloc):
    """Step plant one step under system power p_sys_w in shares alloc and
    book it alone: (ledger, totals, cluster0_dc_wh, any_truncated), the
    step's LossBreakdown beside what replay_steps gives for it from its
    start state and the commands Plant.step returns."""
    p_net, tf_w = plant.transformer_split(p_sys_w)
    soc, ipol = plant.soc.copy(), plant.ipol.copy()
    commands = plant.step(p_net, alloc)
    totals, e_dc0, truncated = (np.empty((E_DC, 1)), np.empty(1),
                                np.empty(1, dtype=bool))
    replay_steps(soc[None], ipol[None], commands[None], plant.params,
                 totals, e_dc0, truncated)
    columns = plant.book(totals, np.array([tf_w]))
    ledger = LossBreakdown(**{k: float(v[0]) for k, v in columns.items()})
    return ledger, totals[:, 0], float(e_dc0[0]), bool(truncated[0])


# converters of unit efficiency: the AC command is the DC power
UNIT_PCS = PcsEfficiencyCoeffs((1.0, 0.0, 0.0, 0.0, 0.0))
LOSSLESS_PCS = ClusterParams(acdc_coeffs=UNIT_PCS, dcdc_coeffs=UNIT_PCS)


def _dc_current(p_dc_w: float) -> float:
    """Terminal current (A) delivering p_dc_w at the battery terminals of
    a cluster at SoC 0.5 with no polarization."""
    return _step_one(LOSSLESS_PCS, 0.5, 0.0, p_dc_w, 60.0)[2]


class TestClusterCurrent:
    def test_zero_power(self):
        assert _dc_current(0.0) == 0.0

    def test_charge_root(self):
        assert _dc_current(50_000.0) == pytest.approx(83.17, abs=0.05)

    def test_discharge_root(self):
        assert _dc_current(-50_000.0) == pytest.approx(-88.0, abs=0.5)

    def test_infeasible_power_rejected(self):
        with pytest.raises(InfeasiblePowerError):
            _dc_current(-1e9)


class TestStepCluster:
    def test_idle_step_at_rest(self):
        soc, _, _, trunc, ledger = _step_one(ClusterParams(), 0.5, 0.0,
                                             0.0, 60.0)
        assert soc == 0.5
        assert ledger.total_loss_wh == 0.0
        assert not trunc

    def test_one_hour_charge_soc_rise_and_ledger(self):
        c = ClusterParams()
        soc, ipol = 0.5, 0.0
        total = LossBreakdown()
        for _ in range(60):
            soc, ipol, _, _, ledger = _step_one(c, soc, ipol, 50_000.0, 60.0)
            total = LossBreakdown(*np.add(dataclasses.astuple(total),
                                          dataclasses.astuple(ledger)))
            scale = max(abs(ledger.grid_wh), 1e-30)
            assert abs(ledger.balance_residual_wh()) / scale < 1e-9
        # soc rise close to I * 1h / 300 Ah for the battery-side current
        # implied by the 50 kW AC command through both converter stages
        eta2 = pcs_efficiency(1.0, c.acdc_coeffs) ** 2
        i_dc = _dc_current(50_000.0 * eta2)
        assert soc - 0.5 == pytest.approx(i_dc / 300.0, rel=0.05)
        assert total.acdc_wh > 0 and total.dcdc_wh > 0
        assert total.battery_ohmic_wh > 0 and total.battery_polarization_wh > 0
        assert total.stored_wh > 0

    def test_truncation_at_soc_ceiling(self):
        soc, _, _, trunc, ledger = _step_one(ClusterParams(), 0.97, 0.0,
                                             50_000.0, 60.0)
        assert trunc
        assert soc == pytest.approx(0.97)
        assert ledger.stored_wh == pytest.approx(0.0, abs=1e-9)

    def test_power_above_rating_rejected(self):
        # 60 kW less the transformer loss still exceeds the 50 kW rating
        plant = Plant(uniform_plant_config(1))
        with pytest.raises(DomainError, match="rating"):
            _book_step(plant, 60_000.0, np.ones(1))

    def test_polarization_relaxation_returns_stored_energy(self):
        c = ClusterParams()
        soc, ipol, _, _, _ = _step_one(c, 0.5, 0.0, 50_000.0, 300.0)
        assert ipol > 0
        _, ipol2, _, _, ledger = _step_one(c, soc, ipol, 0.0, 300.0)
        assert ipol2 < ipol
        # capacitor discharges through the branch resistor: loss comes
        # out of stored energy, grid exchange stays zero
        assert ledger.grid_wh == 0.0
        assert ledger.stored_wh == pytest.approx(-ledger.battery_polarization_wh)


class TestPlant:
    def test_idle_plant_draws_only_core_loss(self):
        plant = Plant(uniform_plant_config(4))
        ledger = _book_step(plant, 0.0, np.full(4, 0.25))[0]
        assert ledger.grid_wh == pytest.approx(5000.0 / 60.0)
        assert ledger.transformer_wh == pytest.approx(5000.0 / 60.0)
        assert ledger.acdc_wh == 0.0 and ledger.dcdc_wh == 0.0

    def test_balanced_full_power_split(self):
        plant = Plant(uniform_plant_config(100))
        k = np.full(100, 0.01)
        p_net, tf_w = plant.transformer_split(5e6)
        targets = plant._cluster_targets(p_net, k)
        assert np.allclose(targets, targets[0])
        # every cluster sees its ~50 kW share, net of the shared
        # transformer loss taken off the grid side
        assert targets[0] == pytest.approx((5e6 - tf_w) / 100)
        assert targets[0] == pytest.approx(50_000.0, rel=0.01)

    def test_transformer_overload_rejected(self):
        # 9 MW through the default 6.3 MVA unit is a load factor of 1.43
        plant = Plant(uniform_plant_config(200))
        with pytest.raises(DomainError, match="overload"):
            plant.transformer_split(9e6)
        # up to 1.2 the load loss is booked at the actual load factor
        assert plant.transformer_split(7.56e6)[1] == pytest.approx(
            5_000.0 + 1.2 ** 2 * 35_000.0)

    def test_degenerate_allocation_leaves_other_cluster_idle(self):
        plant = Plant(uniform_plant_config(2))
        _book_step(plant, 50_000.0, np.array([1.0, 0.0]))
        assert plant.soc[0] > plant.cfg.initial_soc
        assert plant.soc[1] == plant.cfg.initial_soc
        assert plant.ipol[1] == 0.0

    def test_infeasible_allocation_names_cluster(self):
        plant = Plant(uniform_plant_config(2))
        with pytest.raises(DomainError, match="cluster 1"):
            _book_step(plant, 100_000.0, np.array([0.0, 1.0]))

    def test_snapshot_restore_roundtrip(self):
        plant = Plant(uniform_plant_config(3))
        _book_step(plant, 100_000.0, np.full(3, 1 / 3))
        text = plant.snapshot_json()
        other = Plant(uniform_plant_config(3))
        other.restore_json(text)
        assert np.array_equal(other.soc, plant.soc)
        assert np.array_equal(other.ipol, plant.ipol)
        assert other.cumulative.grid_wh == plant.cumulative.grid_wh
        # snapshot text is valid JSON
        json.loads(text)

    def test_restore_rejects_mismatched_shape(self):
        plant = Plant(uniform_plant_config(3))
        snap = plant.snapshot()
        other = Plant(uniform_plant_config(2))
        with pytest.raises(DomainError):
            other.restore(snap)

    # (snapshot edit, field named by the rejection)
    BAD_SNAPSHOTS = [
        (lambda s: s.update(soc=[1.5, 0.5]), "snapshot.soc[0]"),
        (lambda s: s.update(soc=[0.5, -0.2]), "snapshot.soc[1]"),
        (lambda s: s.update(i_pol=[float("nan"), 0.0]), "snapshot.i_pol[0]"),
        (lambda s: s.update(i_pol=[0.0, float("inf")]), "snapshot.i_pol[1]"),
        (lambda s: s.update(t_elapsed_s=-5.0), "snapshot.t_elapsed_s"),
        (lambda s: s.update(t_elapsed_s=float("nan")), "snapshot.t_elapsed_s"),
        (lambda s: s["cumulative_wh"].pop("grid_wh"),
         "snapshot.cumulative_wh.grid_wh"),
        (lambda s: s["cumulative_wh"].update(spare_wh=0.0),
         "snapshot.cumulative_wh.spare_wh"),
        (lambda s: s.pop("t_elapsed_s"), "snapshot.t_elapsed_s"),
        (lambda s: s.pop("soc"), "snapshot.soc"),
        (lambda s: s.pop("cumulative_wh"), "snapshot.cumulative_wh"),
        (lambda s: s.update(soc=["x", 0.5]), "snapshot.soc"),
        (lambda s: s.update(i_pol=[0.0, "x"]), "snapshot.i_pol"),
        (lambda s: s.update(t_elapsed_s="60"), "snapshot.t_elapsed_s"),
        (lambda s: s.update(cumulative_wh=[0.0]), "snapshot.cumulative_wh"),
        (lambda s: s["cumulative_wh"].update(grid_wh="abc"),
         "snapshot.cumulative_wh.grid_wh"),
        (lambda s: s["cumulative_wh"].update(grid_wh=float("nan")),
         "snapshot.cumulative_wh.grid_wh"),
        (lambda s: s["cumulative_wh"].update(acdc_wh=float("inf")),
         "snapshot.cumulative_wh.acdc_wh"),
        (lambda s: s["cumulative_wh"].update(stored_wh=True),
         "snapshot.cumulative_wh.stored_wh"),
        (lambda s: s.update(t_elapsed_s=10**400), "snapshot.t_elapsed_s"),
        (lambda s: s["cumulative_wh"].update(grid_wh=10**400),
         "snapshot.cumulative_wh.grid_wh"),
    ]

    @pytest.mark.parametrize("edit, field", BAD_SNAPSHOTS,
                             ids=["soc_high", "soc_low", "ipol_nan", "ipol_inf",
                                  "t_negative", "t_nan", "ledger_missing",
                                  "ledger_unknown", "t_absent", "soc_absent",
                                  "ledger_absent", "soc_not_numbers",
                                  "ipol_not_numbers", "t_string",
                                  "ledger_not_an_object", "ledger_string",
                                  "ledger_nan", "ledger_inf", "ledger_bool",
                                  "t_beyond_float", "ledger_beyond_float"])
    def test_restore_rejects_bad_state_by_field(self, edit, field):
        plant = Plant(uniform_plant_config(2))
        _book_step(plant, 50_000.0, np.full(2, 0.5))
        snap = plant.snapshot()
        edit(snap)
        other = Plant(uniform_plant_config(2))
        before = other.snapshot()
        with pytest.raises(DomainError) as e:
            other.restore(snap)
        assert e.value.field == field
        assert other.snapshot() == before

    def test_restore_keeps_numbers_as_floats(self):
        # integers, as a hand-written snapshot holds them, restore as floats
        # that the next step books onto
        plant = Plant(uniform_plant_config(2))
        snap = plant.snapshot()
        snap["t_elapsed_s"] = 60
        snap["cumulative_wh"] = dict.fromkeys(snap["cumulative_wh"], 0)
        snap["cumulative_wh"]["grid_wh"] = 2**60
        plant.restore(snap)
        assert type(plant.t_elapsed) is float and plant.t_elapsed == 60.0
        ledger = dataclasses.asdict(plant.cumulative)
        assert {type(v) for v in ledger.values()} == {float}
        assert ledger["grid_wh"] == 2.0**60
        _book_step(plant, 50_000.0, np.full(2, 0.5))
        assert plant.cumulative.grid_wh > 2.0**60

    def test_restore_accepts_soc_an_ulp_past_the_bound(self):
        # a step truncated at the bound can land there
        plant = Plant(uniform_plant_config(2))
        snap = plant.snapshot()
        snap["soc"] = [np.nextafter(plant.cfg.soc_max, 1.0),
                       np.nextafter(plant.cfg.soc_min, 0.0)]
        plant.restore(snap)
        assert plant.soc.tolist() == snap["soc"]

    def test_blocked_mask_direction(self):
        plant = Plant(uniform_plant_config(2))
        plant.soc = np.array([0.97, 0.5])
        assert plant.blocked_mask(1000.0).tolist() == [True, False]
        assert plant.blocked_mask(-1000.0).tolist() == [False, False]

    def test_batch_evaluation_matches_sequential_steps(self):
        plant = Plant(uniform_plant_config(3))
        plant.soc = np.array([0.4, 0.5, 0.6])
        plant.ipol = np.array([1.0, -2.0, 0.5])
        K = np.array([[0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]])
        fits = plant.evaluate_allocations(
            plant.net_cluster_power(90_000.0), K)
        for row, fit in zip(K, fits):
            clone = Plant(uniform_plant_config(3))
            clone.soc = plant.soc.copy()
            clone.ipol = plant.ipol.copy()
            ledger = _book_step(clone, 90_000.0, row)[0]
            assert fit == pytest.approx(ledger.stored_wh, rel=1e-12)

    def test_batch_evaluation_flags_infeasible(self):
        plant = Plant(uniform_plant_config(2))
        fits = plant.evaluate_allocations(
            plant.net_cluster_power(100_000.0),
            np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert fits[0] == -np.inf
        assert np.isfinite(fits[1])

    @pytest.mark.parametrize("shape", [(2, 1), (2, 3), ()])
    def test_batch_evaluation_rejects_a_wrong_width(self, shape):
        # (2, 1) or a scalar would broadcast over all four clusters, (2, 3)
        # would fail inside numpy; each is the width error Plant.step raises
        plant = Plant(uniform_plant_config(4))
        K = np.full(shape, 0.5)
        with pytest.raises(DomainError) as step_error:
            plant.step(1000.0, K[0] if K.ndim else K)
        with pytest.raises(DomainError) as e:
            plant.evaluate_allocations(1000.0, K)
        assert str(e.value) == str(step_error.value)
        assert plant.soc.tolist() == [plant.cfg.initial_soc] * 4

    @pytest.mark.parametrize("m", [4, 5])
    def test_uniform_fast_step_matches_vectorized_step(self, m):
        # the scalar kernel is the state half of the array kernel: the next
        # state bit for bit, signed zeros included
        cfg = uniform_plant_config(m, transformer=TransformerParams())
        plant = Plant(cfg)
        kernel = plant.params.scalar_step
        k = np.full(m, 1.0 / m)
        soc, ipol = cfg.initial_soc, 0.0
        for p in (120_000.0, -80_000.0, 0.0, 30_000.0):
            _book_step(plant, p, k)
            p_ac = np.array([k[0] * plant.net_cluster_power(p)])
            out = kernel(soc, ipol, float(_command(p_ac, plant.params)[2][0]))
            assert len(out) == 2
            soc, ipol = out
            assert plant.soc.tobytes() == np.full(m, soc).tobytes()
            assert plant.ipol.tobytes() == np.full(m, ipol).tobytes()


def _general_loop():
    """Patch Plant.is_uniform to False: run_simulation then takes the
    general per-cluster loop on any plant."""
    return mock.patch.object(Plant, "is_uniform", return_value=False)


class TestGeneralPathMatchesFastPath:
    """A uniform plant runs the scalar fast path; the same run with
    Plant.is_uniform patched to False takes the general per-cluster loop.
    At four clusters both produce the same per-step traces, record the
    same allocation bytes and leave the same plant state bit for bit, also
    when a step raises mid-horizon."""

    TRACES_WH = ("grid_wh", "stored_wh", "transformer_wh", "acdc_wh",
                 "dcdc_wh", "ohmic_wh", "polarization_wh", "ss_wh", "ts_wh")
    TRACES_W = ("delivered_w", "cluster0_dc_w")
    PROFILE = synth_load(SynthLoadSpec(
        days=4, dt_s=300.0, base_w=1.2e6, valley_depth_w=0.3e6,
        valley_sigma_h=1.5, morning_peak_w=0.0, evening_peak_w=0.3e6,
        evening_sigma_h=0.8, noise_rel=0.003, day_jitter=0.02), 5)

    @staticmethod
    def _plants(c: ClusterParams, initial_soc: float, m: int = 4):
        """Two fresh plants of m clusters c: the second is to be run under
        _general_loop."""
        cfg = PlantConfig(clusters=(c,) * m, dt_s=300.0,
                          initial_soc=initial_soc)
        fast, general = Plant(cfg), Plant(cfg)
        assert fast.is_uniform()
        return fast, general

    @staticmethod
    def _runs(fast: Plant, general: Plant, profile, *args, **kwargs):
        """run_simulation of profile on both plants, general's on the
        general loop."""
        rf = run_simulation(fast, profile, *args, **kwargs)
        with _general_loop():
            rg = run_simulation(general, profile, *args, **kwargs)
        return rf, rg

    @staticmethod
    def _assert_same_state(fast: Plant, general: Plant):
        _assert_same_plant(fast, general)
        assert fast.max_balance_residual_rel <= 1e-9

    # the band edges: at soc_max the SoC gate drops the first planned
    # charge, at soc_min the plant starts with nothing to discharge
    @pytest.mark.parametrize("initial_soc", [
        0.1, 0.9, PlantConfig.soc_min, PlantConfig.soc_max])
    def test_multi_day_traces_agree(self, initial_soc):
        fast, general = self._plants(ClusterParams(), initial_soc)
        rf, rg = self._runs(fast, general, self.PROFILE, 200e3, 800e3,
                            record_alloc=True)
        assert np.count_nonzero(rf.demand_w) > 0
        for name in ("alloc_matrix", "demand_w", "cluster_target_w",
                     "truncated") + self.TRACES_WH + self.TRACES_W:
            assert (getattr(rf, name).tobytes()
                    == getattr(rg, name).tobytes()), name
        self._assert_same_state(fast, general)

    # 1/m is not a dyadic fraction here, so a share derived twice (1/m, and
    # 1/m renormalised by repair) can differ in the last bit
    @pytest.mark.parametrize("m", [7, 37])
    def test_same_balanced_allocation_bytes(self, m):
        fast, general = self._plants(ClusterParams(), 0.5, m)
        rf, rg = self._runs(fast, general, self.PROFILE, 200e3, 800e3,
                            record_alloc=True)
        assert np.count_nonzero(rg.demand_w) > 0
        assert rf.alloc_matrix.tobytes() == rg.alloc_matrix.tobytes()

    @pytest.mark.parametrize("dt_s, initial_soc, demand", [
        # from soc_max both loops drop the first two charges; the discharge
        # right after them, with no zero sample between, is stepped
        (300.0, PlantConfig.soc_max,
         [50e3, 60e3, -70e3, 40e3, 0.0, -30e3, 20e3]),
        # 60 idle hours after a discharge decay ipol through the
        # subnormals to a zero, +0.0 on both loops
        (3600.0, 0.5, [-50e3] + [0.0] * 60)])
    def test_loops_agree_on_a_given_demand(self, dt_s, initial_soc, demand):
        demand = np.array(demand)
        n = demand.size
        cfg = PlantConfig(clusters=(ClusterParams(),) * 4, dt_s=dt_s,
                          initial_soc=initial_soc)
        fast, general = Plant(cfg), Plant(cfg)
        tf_idle = fast.transformer_split(0.0)[1]
        runs = [_Steps(demand_w=demand.copy(), target_w=np.zeros(n),
                       tf_w=np.full(n, tf_idle), totals=np.zeros((E_DC, n)),
                       e_dc0=np.zeros(n), truncated=np.zeros(n, dtype=bool),
                       alloc=None) for _ in range(2)]
        _run_uniform(fast, runs[0], 0.25)
        _run_general(general, runs[1], np.full(4, 0.25), "balanced", None, 1)
        if initial_soc == PlantConfig.soc_max:
            assert runs[0].demand_w[:3].tolist() == [0.0, 0.0, -70e3]
        else:
            assert fast.ipol.tobytes() == np.zeros(4).tobytes()
        for name in ("demand_w", "target_w", "tf_w", "totals", "e_dc0",
                     "truncated"):
            assert (getattr(runs[0], name).tobytes()
                    == getattr(runs[1], name).tobytes()), name
        assert runs[0].done == runs[1].done == n
        _assert_same_plant(fast, general)

    def test_infeasible_step_leaves_same_state(self):
        # a cell block this resistive cannot deliver its discharge rating:
        # the first strong discharge step raises after the night's charging
        lossy = ClusterParams(cell=dataclasses.replace(
            ClusterParams().cell, r_ohm=0.3))
        fast, general = self._plants(lossy, 0.5)
        with pytest.raises(InfeasiblePowerError):
            run_simulation(fast, self.PROFILE, 200e3, 800e3)
        with _general_loop(), pytest.raises(InfeasiblePowerError):
            run_simulation(general, self.PROFILE, 200e3, 800e3)
        horizon = self.PROFILE.n_samples * self.PROFILE.dt_s
        assert 0.0 < fast.t_elapsed < horizon
        assert fast.cumulative.stored_wh > 0.0
        self._assert_same_state(fast, general)


class TestTransformerSplitPerRun:
    """How each loop reaches transformer_loss. Both first split the 0 W
    that a run's zero steps share (one float call). The uniform loop then
    splits every planned sample in one array pass (simulate._cap_to_plant:
    two array calls where the discharge cap binds) and nothing per step.
    The general loop makes no array pass: each step that is not 0 W and
    has a free cluster is split on its own (simulate._cap_one), one float
    call, and a second where the discharge cap binds."""

    @staticmethod
    def _calls(plant: Plant):
        """run_simulation of the default profile on plant: the calls it
        makes in order, ("tf", ndim of the load factors) for each
        transformer_loss call and ("mask", p_sys_w, a cluster is blocked,
        every cluster is) for each Plant.blocked_mask call, and the
        executed and planned demand."""
        events = []
        tf_loss = bessim.plant.transformer_loss
        blocked_mask = Plant.blocked_mask

        def tf_spy(load_factor, params, **kwargs):
            events.append(("tf", np.ndim(load_factor)))
            return tf_loss(load_factor, params, **kwargs)

        def mask_spy(self, p_sys_w):
            mask = blocked_mask(self, p_sys_w)
            events.append(("mask", p_sys_w, bool(mask.any()),
                           bool(mask.all())))
            return mask

        profile = TestGeneralPathMatchesFastPath.PROFILE
        with (mock.patch.object(bessim.plant, "transformer_loss", tf_spy),
              mock.patch.object(Plant, "blocked_mask", mask_spy)):
            r = run_simulation(plant, profile, 200e3, 800e3)
        planned = replay_horizon(r.plans, profile, gated=False)["demand_w"]
        # the cap binds on some discharge
        assert ((r.demand_w < 0.0) & (r.demand_w > planned)).any()
        return events, r.demand_w, planned

    @staticmethod
    def _split_loop(events, before):
        """The calls before the loop's first blocked_mask call, checked
        against before, and the loop's calls."""
        loop = next((i for i, e in enumerate(events) if e[0] == "mask"),
                    len(events))
        assert events[:loop] == before
        return events[loop:]

    def test_uniform_loop_splits_no_step(self):
        plant = Plant(PlantConfig(clusters=(ClusterParams(),) * 4,
                                  dt_s=300.0))
        events = self._calls(plant)[0]
        assert self._split_loop(
            events, [("tf", 0), ("tf", 1), ("tf", 1)]) == []

    def test_general_loop_splits_every_powered_step_on_its_own(self):
        plant = Plant(PlantConfig(clusters=(ClusterParams(),) * 4,
                                  dt_s=300.0))
        plant.soc = np.array([PlantConfig.soc_min, 0.2, 0.5,
                              PlantConfig.soc_max])
        events, executed, planned = self._calls(plant)
        # [planned power, some but not all clusters blocked, every
        # cluster blocked, float splits] per step
        steps = []
        for event in self._split_loop(events, [("tf", 0)]):
            if event[0] == "mask":
                steps.append([*event[1:], 0])
            else:
                assert event == ("tf", 0)
                steps[-1][-1] += 1
        assert [s[0] for s in steps] == planned.tolist()
        want = [0 if p == 0.0 or every
                else 1 + (p < 0.0 and d != p)   # the discharge cap binds
                for (p, _, every, _), d in zip(steps, executed.tolist())]
        assert [s[-1] for s in steps] == want
        assert {0, 1, 2} <= set(want)
        assert any(some and not every for _, some, every, _ in steps)


SOC_MIN, SOC_MAX = 0.03, 0.97
# the third kind has its own DC/DC efficiency curve, so batches mixing it
# in step the AC/DC and DC/DC stages with different coefficient tables
CLUSTER_KINDS = (ClusterParams(),
                 ClusterParams(n_parallel=20, rated_power_w=40_000.0),
                 ClusterParams(dcdc_coeffs=PcsEfficiencyCoeffs(
                     (0.80, 0.7955, -2.073, 2.137, -0.8137))))


def _continue_from_snapshot(plant: Plant, profile, split_day: int):
    """Run profile's first split_day days on plant, move the plant through
    its JSON snapshot into a fresh Plant and run the rest there."""
    n = split_day * profile.samples_per_day()
    halves = [LoadProfile(profile.start_time, profile.dt_s, v)
              for v in (profile.values_w[:n], profile.values_w[n:])]
    first = run_simulation(plant, halves[0], 200e3, 800e3)
    resumed = Plant(plant.cfg)
    resumed.restore_json(plant.snapshot_json())
    second = run_simulation(resumed, halves[1], 200e3, 800e3)
    return first, second, resumed


@st.composite
def split_runs(draw, uniform: bool):
    """Four clusters of kinds from CLUSTER_KINDS with their initial SoC,
    and the day (1 to 3) at which to split the 4-day
    TestGeneralPathMatchesFastPath.PROFILE. A uniform plant has one kind
    and one SoC; otherwise kinds are drawn per cluster and the SoC is one
    value or spread, short of a uniform plant."""
    soc = st.one_of(st.sampled_from([SOC_MIN, SOC_MAX]),
                    st.floats(SOC_MIN, SOC_MAX))
    if uniform:
        kinds = (draw(st.sampled_from(CLUSTER_KINDS)),) * 4
        socs = [draw(soc)] * 4
    else:
        kinds = tuple(draw(st.lists(st.sampled_from(CLUSTER_KINDS),
                                    min_size=4, max_size=4)))
        socs = draw(st.one_of(soc.map(lambda s: [s] * 4),
                              st.lists(soc, min_size=4, max_size=4)))
        assume(len(set(kinds)) > 1 or len(set(socs)) > 1)
    cfg = PlantConfig(clusters=kinds, dt_s=300.0, soc_min=SOC_MIN,
                      soc_max=SOC_MAX, initial_soc=socs[0])
    return cfg, np.array(socs), draw(st.integers(1, 3))


class TestSnapshotContinuation:
    """Snapshot mid-run, restore into a fresh plant, continue: the balanced
    result equals one uninterrupted run bit for bit, on the uniform fast
    path and on the general path."""

    TRACES = TestGeneralPathMatchesFastPath.TRACES_WH + (
        "demand_w", "delivered_w", "cluster0_dc_w", "truncated")

    @pytest.mark.parametrize("uniform", [True, False])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_two_halves_equal_one_run(self, uniform, data):
        cfg, soc, split_day = data.draw(split_runs(uniform))
        profile = TestGeneralPathMatchesFastPath.PROFILE

        def fresh():
            plant = Plant(cfg)
            plant.soc = soc.copy()
            assert plant.is_uniform() == uniform
            return plant

        whole_plant = fresh()
        whole = run_simulation(whole_plant, profile, 200e3, 800e3)
        first, second, resumed = _continue_from_snapshot(fresh(), profile,
                                                         split_day)
        for name in self.TRACES:
            joined = np.concatenate([getattr(first, name),
                                     getattr(second, name)])
            assert np.array_equal(joined, getattr(whole, name)), name
        assert resumed.cumulative == whole_plant.cumulative
        assert np.array_equal(resumed.soc, whole_plant.soc)
        assert np.array_equal(resumed.ipol, whole_plant.ipol)
        assert resumed.t_elapsed == whole_plant.t_elapsed


@st.composite
def step_batches(draw):
    """(n, m) batches of cluster states and commands within the ratings."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(CLUSTER_KINDS), min_size=m,
                          max_size=m))
    dt = draw(st.floats(1.0, 3600.0))
    pp = _ParamArrays(tuple(kinds), SOC_MIN, SOC_MAX, dt)

    def grid(elements):
        values = draw(st.lists(elements, min_size=n * m, max_size=n * m))
        return np.array(values, dtype=float).reshape(n, m)

    soc = grid(st.one_of(st.sampled_from([SOC_MIN, SOC_MAX]),
                         st.floats(SOC_MIN, SOC_MAX)))
    ipol = grid(st.floats(-150.0, 150.0))
    p_ac = grid(st.floats(-1.0, 1.0)) * pp.rated_w
    return soc, ipol, p_ac, dt, pp, kinds


class TestStepArraysProperties:
    @settings(max_examples=200)
    @given(step_batches())
    def test_ledger_closes_and_rows_match_single_steps(self, batch):
        soc, ipol, p_ac, _, pp, _ = batch
        soc_new, ipol_new, current, truncated, E = _step_arrays(
            soc, ipol, p_ac, pp)
        assert E.shape == (9,) + soc.shape

        losses = E[ACDC] + E[DCDC] + E[OHMIC] + E[POLARIZATION]
        residual = E[E_AC] - E[STORED] - losses
        scale = np.maximum.reduce([np.abs(E[E_AC]), np.abs(E[STORED]),
                                   np.abs(losses), np.full(soc.shape, 1e-30)])
        assert np.all(np.abs(residual) <= 1e-9 * scale)
        assert np.all(soc_new >= SOC_MIN - 1e-12)
        assert np.all(soc_new <= SOC_MAX + 1e-12)

        for r in range(soc.shape[0]):
            row = _step_arrays(soc[r], ipol[r], p_ac[r], pp)
            for got, want in zip((soc_new[r], ipol_new[r], current[r],
                                  truncated[r], E[:, r]), row):
                assert np.array_equal(got, want)

    @settings(max_examples=100)
    @given(step_batches())
    def test_matches_scalar_twin(self, batch):
        soc, ipol, p_ac, dt, pp, kinds = batch
        soc_new, ipol_new = _step_arrays(soc, ipol, p_ac, pp)[:2]
        kernels = [_ParamArrays((k,), SOC_MIN, SOC_MAX, dt).scalar_step
                   for k in kinds]
        # the twin's DC power from the command half the array kernel runs
        p_dc = _command(p_ac, pp)[2]
        for (r, j), s0 in np.ndenumerate(soc):
            want = kernels[j](float(s0), float(ipol[r, j]), float(p_dc[r, j]))
            # the state half of one formula: the next state bit for bit,
            # signed zeros included
            assert len(want) == 2
            assert _bits(soc_new[r, j], ipol_new[r, j]) == _bits(*want)


def _reference_step_arrays(soc, ipol, p_ac, pp):
    """The step kernel as one expression per quantity, every energy row
    written into one (9,) + shape stack and the stack scaled to Wh at the
    end: the operations of _step_arrays before its energy half was split
    into _battery_energies and _converter_energies, kept as the oracle
    that the kernel and evaluate_allocations must match bit for bit."""
    (decay, coulomb, tau_1md, tau_half_1md2, r_ohm_dt, r_pol_dt,
     r_sum_dt) = pp.step_consts
    dt = pp.dt
    charging = p_ac >= 0.0
    lam = np.minimum(np.abs(p_ac) / pp.rated, 1.0)
    eta_ac = _efficiency(pp.acdc_a, lam)
    eta_dc = _efficiency(pp.dcdc_a, lam)
    eta2 = eta_ac * eta_dc
    p_dc = np.where(charging, p_ac * eta2, p_ac / eta2)
    b = pp.n_series * _horner(pp.ocv_b, soc) + pp.r_pol * ipol
    disc = pp.r_ohm4 * p_dc + b * b
    current = 2.0 * p_dc / (np.sqrt(disc) + b)
    i_lo = np.minimum((pp.soc_min - soc) / coulomb, 0.0)
    i_hi = np.maximum((pp.soc_max - soc) / coulomb, 0.0)
    clamped = np.minimum(np.maximum(current, i_lo), i_hi)
    truncated = clamped != current
    current = clamped
    soc_new = current * coulomb + soc
    ipol_new = (ipol - current) * decay + current

    cur2 = current * current
    d0 = ipol - current
    j1 = d0 * tau_1md + current * dt
    j2 = d0 * d0 * tau_half_1md2 + d0 * tau_1md * current * 2.0 + cur2 * dt
    v_mean = _mean_ocv(pp.ocv_anti, np.minimum(np.maximum(soc, 0.0), 1.0),
                       np.minimum(np.maximum(soc_new, 0.0), 1.0))
    v_mean *= pp.n_series
    e_ohm = cur2 * r_ohm_dt
    e_pol = pp.r_pol * j2
    e_dc = current * dt * v_mean + e_ohm + j1 * current * pp.r_pol
    e_mid = np.where(charging, e_dc / eta_dc, e_dc * eta_dc)
    e_ac = np.where(charging, e_mid / eta_ac, e_mid * eta_ac)
    E = np.empty((9,) + current.shape)
    E[E_AC], E[STORED] = e_ac, e_dc - e_ohm - e_pol
    E[ACDC], E[DCDC] = e_ac - e_mid, e_mid - e_dc
    E[OHMIC], E[POLARIZATION], E[E_DC] = e_ohm, e_pol, e_dc
    E[SS], E[TS] = cur2 * r_sum_dt, e_pol - cur2 * r_pol_dt
    E *= WH_PER_J
    return soc_new, ipol_new, current, truncated, E


def _stack_fitness(plant: Plant, p_net_w: float, K: np.ndarray) -> np.ndarray:
    """evaluate_allocations' fitness read off the oracle's whole energy
    stack: STORED summed over clusters when charging, 2 delivered - drawn
    from E_AC and STORED when discharging, -inf above a rating."""
    targets = K * p_net_w
    rated = plant.params.rated
    infeasible = (np.abs(targets) > plant.params.rated_tol_w).any(axis=-1)
    safe_targets = np.maximum(np.minimum(targets, rated), -rated)
    E = _reference_step_arrays(plant.soc, plant.ipol, safe_targets,
                               plant.params)[4]
    if p_net_w >= 0:
        fitness = E[STORED].sum(axis=-1)
    else:
        delivered = -E[E_AC].sum(axis=-1)
        drawn = -E[STORED].sum(axis=-1)
        fitness = 2.0 * delivered - drawn
    fitness[infeasible] = -np.inf
    return fitness


class TestConverterFits:
    """The kernel evaluates each distinct converter fit once: a Plant.step
    calls _efficiency once where every cluster's AC/DC and DC/DC tables
    are equal, and twice where any cluster's differ (the third kind's own
    DC/DC fit). TestReferenceKernel and TestEvaluateAllocationsProperty,
    whose oracle evaluates both fits, check that the scores stay bit for
    bit."""

    @pytest.mark.parametrize("kinds, calls", [
        ((CLUSTER_KINDS[0],) * 3, 1),
        (CLUSTER_KINDS[:2], 1),
        ((CLUSTER_KINDS[2],) * 3, 2),
        (CLUSTER_KINDS, 2)], ids=["default", "mixed_same_fits", "own_dcdc",
                                  "mixed_own_dcdc"])
    def test_efficiency_calls_per_step(self, kinds, calls):
        plant = Plant(PlantConfig(clusters=kinds))
        share = np.full(len(kinds), 1.0 / len(kinds))
        with mock.patch.object(bessim.plant, "_efficiency",
                               wraps=bessim.plant._efficiency) as efficiency:
            plant.step(30_000.0, share)
        assert efficiency.call_count == calls


class TestReferenceKernel:
    @settings(max_examples=200)
    @given(step_batches())
    def test_step_arrays_is_the_reference(self, batch):
        soc, ipol, p_ac, _, pp, _ = batch
        for got, want in zip(_step_arrays(soc, ipol, p_ac, pp),
                             _reference_step_arrays(soc, ipol, p_ac, pp)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@st.composite
def candidate_batches(draw):
    """(plant, p_net, K): a plant of 1 to 6 clusters, of one kind from
    CLUSTER_KINDS (so the kernel constants are shared scalars) or of one
    kind per cluster, in a drawn state with SoC at the band edges among
    the draws; a net cluster power of either sign up to the plant's
    rating, signed zeros included; and (n, m) candidate shares up to 1.5,
    with zeros and rows commanding a cluster above its rating."""
    m = draw(st.integers(1, 6))
    if draw(st.booleans()):
        kinds = (draw(st.sampled_from(CLUSTER_KINDS)),) * m
    else:
        kinds = tuple(draw(st.lists(st.sampled_from(CLUSTER_KINDS),
                                    min_size=m, max_size=m)))
    dt = draw(st.sampled_from((60.0, 300.0, 900.0)))
    plant = Plant(PlantConfig(clusters=kinds, dt_s=dt, soc_min=SOC_MIN,
                              soc_max=SOC_MAX))
    soc = st.one_of(st.sampled_from([SOC_MIN, SOC_MAX]),
                    st.floats(SOC_MIN, SOC_MAX))
    plant.soc = np.array(draw(st.lists(soc, min_size=m, max_size=m)))
    plant.ipol = np.array(draw(st.lists(st.floats(-150.0, 150.0),
                                        min_size=m, max_size=m)))
    scale = draw(st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(-1.0, 1.0)))
    p_net = scale * plant.cfg.total_rated_power_w
    n = draw(st.integers(1, 5))
    share = st.one_of(st.just(0.0), st.floats(0.0, 1.5))
    K = np.array(draw(st.lists(st.lists(share, min_size=m, max_size=m),
                               min_size=n, max_size=n)))
    return plant, p_net, K


class TestEvaluateAllocationsProperty:
    @settings(max_examples=300)
    @given(candidate_batches())
    def test_scores_are_the_energy_stack_fitness(self, case):
        plant, p_net, K = case
        soc, ipol = plant.soc.copy(), plant.ipol.copy()
        got = plant.evaluate_allocations(p_net, K)
        assert got.tobytes() == _stack_fitness(plant, p_net, K).tobytes()
        assert plant.soc.tobytes() == soc.tobytes()
        assert plant.ipol.tobytes() == ipol.tobytes()

    @settings(max_examples=100)
    @given(candidate_batches())
    def test_scorer_reuses_its_state_terms(self, case):
        # one scorer, several swarms: the state terms it took are only read
        plant, p_net, K = case
        score = plant.scorer(p_net)
        for swarm in (K, K[::-1] * 0.5, K):
            want = _stack_fitness(plant, p_net, swarm)
            assert score(swarm).tobytes() == want.tobytes()

    def test_cases_reach_every_branch(self):
        # the draws above cover -0.0 targets on the charging branch,
        # truncated steps and infeasible rows; one case of each here
        plant = Plant(PlantConfig(clusters=CLUSTER_KINDS[:2], dt_s=900.0,
                                  soc_min=SOC_MIN, soc_max=SOC_MAX))
        plant.soc = np.array([SOC_MIN, 0.5])
        K = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        for p_net in (-45_000.0, 45_000.0, -0.0):
            got = plant.evaluate_allocations(p_net, K)
            assert got.tobytes() == _stack_fitness(plant, p_net, K).tobytes()
        # at -45 kW: row 0 gives cluster 1 a -0.0 target, cluster 0 at
        # soc_min truncates the balanced discharge, and row 2 is above
        # the 40 kW rating of cluster 1
        fits = plant.evaluate_allocations(-45_000.0, K)
        assert np.isfinite(fits[:2]).all() and fits[2] == -np.inf
        assert _bits(*(K[0] * -45_000.0)) == _bits(-45_000.0, -0.0)
        assert _step_arrays(plant.soc, plant.ipol, K[1] * -45_000.0,
                            plant.params)[3][0]


@st.composite
def uniform_runs(draw):
    """A fresh plant of m identical clusters of one kind, m from 1 to 64,
    with a drawn step length and initial SoC (band edges included), and a
    two-day load profile at that step scaled to the plant's rating."""
    m = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(CLUSTER_KINDS))
    dt = draw(st.sampled_from((60.0, 300.0, 600.0, 900.0)))
    initial_soc = draw(st.one_of(st.sampled_from([SOC_MIN, SOC_MAX]),
                                 st.floats(SOC_MIN, SOC_MAX)))
    cfg = PlantConfig(clusters=(kind,) * m, dt_s=dt, soc_min=SOC_MIN,
                      soc_max=SOC_MAX, initial_soc=initial_soc)
    p_tot = m * kind.rated_power_w
    profile = synth_load(SynthLoadSpec(
        days=2, dt_s=dt, base_w=6.0 * p_tot, valley_depth_w=1.5 * p_tot,
        valley_sigma_h=1.5, morning_peak_w=0.0, evening_peak_w=1.5 * p_tot,
        evening_sigma_h=0.8, noise_rel=0.003, day_jitter=0.02),
        draw(st.integers(0, 2**16)))
    return cfg, profile, p_tot


class TestUniformFastPathProperty:
    """On any uniform plant the fast path and the general loop
    (Plant.is_uniform patched to False) give bit-identical state traces,
    allocation rows and final state. The cluster sums are m times one cluster's energies on the
    fast path and a sum over m clusters on the general loop, so they agree
    to rounding: within 1e-14 of the step's |grid_wh|."""

    @settings(max_examples=40)
    @given(uniform_runs())
    def test_fast_path_is_the_general_loop(self, run):
        cfg, profile, p_tot = run
        fast, general = Plant(cfg), Plant(cfg)
        rf, rg = TestGeneralPathMatchesFastPath._runs(
            fast, general, profile, p_tot, 4 * p_tot, record_alloc=True)
        for name in ("demand_w", "cluster_target_w", "truncated",
                     "cluster0_dc_w", "alloc_matrix"):
            assert (getattr(rf, name).tobytes()
                    == getattr(rg, name).tobytes()), name
        assert fast.soc.tobytes() == general.soc.tobytes()
        assert fast.ipol.tobytes() == general.ipol.tobytes()
        assert fast.t_elapsed == general.t_elapsed

        tol_wh = 1e-14 * np.abs(rf.grid_wh)
        for name in TestGeneralPathMatchesFastPath.TRACES_WH:
            diff = np.abs(getattr(rf, name) - getattr(rg, name))
            assert np.all(diff <= tol_wh), name
        diff = np.abs(rf.delivered_w - rg.delivered_w) * (cfg.dt_s / 3600.0)
        assert np.all(diff <= tol_wh)


def _hex(*values) -> list[str]:
    return [float(v).hex() for v in values]


@st.composite
def demand_columns(draw, mixed: bool = False):
    """(plant, demand): a plant of 1 to 6 clusters of one kind from
    CLUSTER_KINDS (of any kinds if mixed) behind a drawn transformer, and
    a demand column of both signs with 0.0, -0.0, the plant's rating
    p_tot and the load factors 1.2 and the next float above it among the
    draws. The transformer is the default one, one rated below p_tot (so
    a charge capped at p_tot can overload it), or one whose no-load loss
    is above p_tot (so the discharge cap is -0.0)."""
    m = draw(st.integers(1, 6))
    kind = st.sampled_from(CLUSTER_KINDS)
    kinds = (draw(st.lists(kind, min_size=m, max_size=m)) if mixed
             else (draw(kind),) * m)
    p_tot = sum(kind.rated_power_w for kind in kinds)
    tf = draw(st.sampled_from([
        TransformerParams(),
        TransformerParams(rated_power_w=p_tot / 1.5,
                          rated_load_loss_w=p_tot / 100),
        TransformerParams(no_load_loss_w=2.0 * p_tot)]))
    plant = Plant(PlantConfig(clusters=tuple(kinds), transformer=tf,
                              dt_s=300.0, soc_min=SOC_MIN, soc_max=SOC_MAX))
    at_limit = 1.2 * tf.rated_power_w
    edges = [0.0, -0.0, p_tot, at_limit, np.nextafter(at_limit, math.inf),
             tf.no_load_loss_w]
    edges += [-e for e in edges]
    top = 1.5 * max(p_tot, at_limit)
    demand = draw(st.lists(st.sampled_from(edges) | st.floats(-top, top),
                           min_size=1, max_size=40))
    return plant, np.array(demand)


def _balanced_share(m: int) -> float:
    """The share run_simulation gives each cluster of a uniform plant."""
    blocked = np.zeros(m, dtype=bool)
    return float(repair(balanced_allocation(blocked), blocked)[0])


class TestUniformArrayPass:
    """The array pass of simulate._run_uniform, its two calls on whole
    columns (_cap_to_plant at the plant's rating, then plant._command on
    share * p_net), against the scalar code per sample, bit for bit: the
    split equals _cap_one of the sample, or is marked not ok where that
    raises, and the command half equals what _advance computes for the
    same command. The split's float form (_cap_one, Plant._split,
    transformer_loss) is the array form's formula at any rating below
    the plant's too, as the general loop caps a step to its free
    clusters, and on the transformer's domain edges."""

    @staticmethod
    def _assert_matches_scalar_code(plant: Plant, demand: np.ndarray):
        p_tot = float(np.sum(plant.params.rated_w))
        share = _balanced_share(plant.n_clusters)
        p, p_net, tf_w, ok = _cap_to_plant(demand, p_tot, plant)
        command = _command(share * p_net, plant.params)
        for i, d in enumerate(demand.tolist()):
            try:
                want = _cap_one(d, p_tot, plant)
            except DomainError as e:
                assert "overload" in str(e) and not ok[i]
                continue
            assert ok[i]
            assert _hex(p[i], p_net[i], tf_w[i]) == _hex(*want)
            # the command half inside _advance (copied: _advance reuses
            # its buffers), whatever follows it
            inside = []

            def command_spy(*args):
                out = _command(*args)
                inside.append([c.copy() for c in out])
                return out

            with (mock.patch.object(bessim.plant, "_command", command_spy),
                  contextlib.suppress(InfeasiblePowerError)):
                _advance(np.array([0.5]), np.array([0.0]),
                         np.array([share * want[1]]), plant.params)
            assert len(inside) == 1
            assert (_hex(*(c[i] for c in command))
                    == _hex(*(c[0] for c in inside[0])))
        return p, p_net, tf_w

    @settings(max_examples=150)
    @given(demand_columns())
    def test_matches_the_scalar_code(self, case):
        self._assert_matches_scalar_code(*case)

    def test_edge_cases(self):
        tf = TransformerParams()
        plant = Plant(uniform_plant_config(4, dt_s=300.0))
        p_tot = 200e3
        # a charge at or below the no-load loss leaves the clusters +0.0
        # (max(p - tf, 0.0)); a discharge beyond p_tot is capped
        demand = np.array([tf.no_load_loss_w, 1000.0, -0.0, -250e3])
        p, p_net, tf_w = self._assert_matches_scalar_code(plant, demand)
        assert _hex(*p_net[:3]) == _hex(0.0, 0.0, 0.0)
        assert p[3] == -(p_tot - plant.transformer_split(-250e3)[1])

        # the tie rule: a discharge equal to its own cap keeps p
        d = -p_tot
        for _ in range(50):
            d = -max(p_tot - plant.transformer_split(d)[1], 0.0)
        tie = -max(p_tot - plant.transformer_split(d)[1], 0.0)
        assert tie == d
        p = self._assert_matches_scalar_code(plant, np.array([d]))[0]
        assert _hex(p[0]) == _hex(d)

        # p_tot below the transformer's no-load loss: every discharge is
        # capped to -0.0, and split as 0 W
        small = Plant(uniform_plant_config(
            1, transformer=TransformerParams(no_load_loss_w=60e3),
            dt_s=300.0))
        p, p_net, tf_w = self._assert_matches_scalar_code(
            small, np.array([-1000.0, -60e3, -1e6]))
        assert _hex(*p) == _hex(-0.0, -0.0, -0.0)
        assert _hex(*p_net) == _hex(0.0, 0.0, 0.0)
        assert _hex(*tf_w) == _hex(60e3, 60e3, 60e3)

    @settings(max_examples=150)
    @given(demand_columns(mixed=True), st.data())
    def test_cap_below_the_rating_is_the_float_cap(self, case, data):
        # the general loop's cap: _cap_one at the free clusters' rating,
        # summed as _run_general sums it, is the column pass's cap there
        plant, demand = case
        rated_w = plant.params.rated_w
        blocked = np.array(data.draw(st.lists(
            st.booleans(), min_size=rated_w.size, max_size=rated_w.size)))
        assume(not blocked.all())
        avail = float(rated_w[~blocked].sum())
        demand = np.append(demand, [avail, -avail])
        p, p_net, tf_w, ok = _cap_to_plant(demand, avail, plant)
        for i, d in enumerate(demand.tolist()):
            try:
                want = _cap_one(d, avail, plant)
            except DomainError as e:
                assert "overload" in str(e) and not ok[i]
                continue
            assert ok[i]
            assert [type(v) for v in want] == [float] * 3
            assert _hex(p[i], p_net[i], tf_w[i]) == _hex(*want)

    def test_float_split_is_the_one_element_array_split(self):
        # same values, same ok and same error, in transformer_loss and in
        # the plant's split, on the domain's edges and outside it
        plant = Plant(uniform_plant_config(4, dt_s=300.0))
        tf = plant.cfg.transformer
        at_limit = 1.2 * tf.rated_power_w
        powers = [0.0, -0.0, tf.no_load_loss_w, at_limit,
                  math.nextafter(at_limit, math.inf), -1000.0, math.nan]
        powers += [-x for x in powers[2:5]]
        factors = [0.0, -0.0, tf.no_load_loss_w / tf.rated_power_w, 1.2,
                   math.nextafter(1.2, math.inf), -0.1, math.nan]

        def outcome(fn, x):
            try:
                return fn(x)
            except DomainError as e:
                return type(e), str(e)

        for x in factors:
            loss, ok = transformer_loss(x, tf, masked=True)
            loss_a, ok_a = transformer_loss(np.array([x]), tf, masked=True)
            assert (type(loss), type(ok)) == (float, bool)
            assert (_hex(loss), ok) == (_hex(loss_a[0]), ok_a[0])
            got = outcome(lambda v: transformer_loss(v, tf), x)
            want = outcome(lambda v: transformer_loss(np.array([v]), tf), x)
            if ok:
                assert _hex(got) == _hex(want[0])
            else:
                assert got == want
        for x in powers:
            *split, ok = plant._split(x)
            *split_a, ok_a = plant._split(np.array([x]))
            assert [type(v) for v in (*split, ok)] == [float, float, bool]
            assert (_hex(*split), ok) == (_hex(*(v[0] for v in split_a)),
                                          ok_a[0])
            got = outcome(plant.transformer_split, x)
            want = outcome(plant.transformer_split, np.array([x]))
            if ok:
                assert [type(v) for v in got] == [float, float]
                assert _hex(*got) == _hex(*(v[0] for v in want))
            else:
                assert got == want
        # a Python int takes the float form, and returns floats
        for x in (-1000, 150_000):
            got = plant.transformer_split(x)
            assert [type(v) for v in got] == [float, float]
            assert _hex(*got) == _hex(*plant.transformer_split(float(x)))
        assert type(transformer_loss(1, tf)) is float

    def test_plant_below_the_no_load_loss_runs_alike_on_both_loops(self):
        # every discharge is capped to -0.0 and every charge leaves the
        # clusters 0 W: the uniform loop steps its kernel at p_dc = 0.0
        # where the general loop steps Plant.step at p_net = 0.0
        cfg = PlantConfig(clusters=(ClusterParams(),) * 4, dt_s=300.0,
                          transformer=TransformerParams(no_load_loss_w=300e3))
        demand = np.array([-50e3, 0.0, 150e3, -0.0, -200e3, 30e3, -10e3])
        n = demand.size
        fast, general = Plant(cfg), Plant(cfg)
        fast.ipol[:] = general.ipol[:] = -40.0
        tf_idle = fast.transformer_split(0.0)[1]
        runs = [_Steps(demand_w=demand.copy(), target_w=np.zeros(n),
                       tf_w=np.full(n, tf_idle), totals=np.zeros((E_DC, n)),
                       e_dc0=np.zeros(n), truncated=np.zeros(n, dtype=bool),
                       alloc=None) for _ in range(2)]
        _run_uniform(fast, runs[0], 0.25)
        _run_general(general, runs[1], np.full(4, 0.25), "balanced", None, 1)
        assert _hex(*runs[0].demand_w) == _hex(-0.0, 0.0, 150e3, 0.0, -0.0,
                                               30e3, -0.0)
        for name in ("demand_w", "target_w", "tf_w", "totals", "e_dc0",
                     "truncated"):
            assert (getattr(runs[0], name).tobytes()
                    == getattr(runs[1], name).tobytes()), name
        _assert_same_plant(fast, general)


class TestMeanOcv:
    """plant._mean_ocv, the mean OCV over a step's SoC interval, against
    the exact divided difference of the fit's antiderivative F in rational
    arithmetic, (F(n) - F(c)) / (n - c), or F'(c) where n == c. The
    intervals run from 1e-16 (a fraction of an ulp at mid SoC, so some
    are empty) to 1e-2 wide, both directions, from starts across [0, 1]."""

    @pytest.mark.parametrize("ocv", [
        OcvCoeffs(), OcvCoeffs((3.0, 1.2, -0.6, 0.6))])
    def test_matches_exact_divided_difference(self, ocv):
        cell = dataclasses.replace(ClusterParams().cell, ocv=ocv)
        anti = _ParamArrays((ClusterParams(cell=cell),), SOC_MIN, SOC_MAX,
                            60.0).ocv_anti
        f = [Fraction(x) for x in anti]
        starts = np.concatenate([[0.0, SOC_MIN, 0.5, SOC_MAX, 1.0],
                                 np.linspace(0.05, 0.95, 19)])
        widths = np.outer(10.0 ** np.arange(-16, -1), [1.0, 3.7])
        for width in np.concatenate([widths.ravel(), -widths.ravel()]):
            soc_n = np.clip(starts + width, 0.0, 1.0)
            got = _mean_ocv(anti, starts, soc_n)
            for c, n, g in zip(map(Fraction, starts.tolist()),
                               map(Fraction, soc_n.tolist()), got.tolist()):
                if n == c:
                    want = sum((j + 1) * fj * c ** j for j, fj in enumerate(f))
                else:
                    want = sum(fj * (n ** (j + 1) - c ** (j + 1))
                               for j, fj in enumerate(f)) / (n - c)
                assert abs(Fraction(g) - want) <= Fraction(1e-14) * want, (
                    float(c), float(n))


class TestKernelMatchesLossModels:
    """_step_arrays against the reference functions of bessim.losses, on
    random states and commands for a plant of the three cluster kinds. The
    reference functions are per cell; a cluster's branch currents equal
    its cells' times n_parallel, so its energies are the cell values
    scaled by n_series / n_parallel."""

    N = 40

    @pytest.mark.parametrize("dt", [60.0, 300.0, 900.0])
    def test_kernel_agrees_with_reference_functions(self, dt):
        rng = np.random.default_rng(int(dt))
        pp = _ParamArrays(CLUSTER_KINDS, SOC_MIN, SOC_MAX, dt)
        shape = (self.N, len(CLUSTER_KINDS))
        soc = rng.uniform(0.1, 0.9, shape)
        ipol = rng.uniform(-150.0, 150.0, shape)
        p_ac = (rng.uniform(0.05, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
                * pp.rated_w)
        _, ipol_new, current, truncated, E = _step_arrays(
            soc, ipol, p_ac, pp)
        assert not truncated.any()
        t = np.linspace(0.0, dt, 20_001)
        for j, c in enumerate(CLUSTER_KINDS):
            cell, scale_wh = c.cell, c.n_series / c.n_parallel / 3600.0
            cur, charging = current[:, j], p_ac[:, j] >= 0.0

            # converter stages: each energy ratio is the stage efficiency
            # at the command's load factor
            lam = np.abs(p_ac[:, j]) / c.rated_power_w
            eta_ac = pcs_efficiency(lam, c.acdc_coeffs)
            eta_dc = pcs_efficiency(lam, c.dcdc_coeffs)
            e_dc, e_ac = E[E_DC, :, j], E[E_AC, :, j]
            e_mid = e_dc + E[DCDC, :, j]
            assert np.allclose(np.where(charging, e_dc / e_mid, e_mid / e_dc),
                               eta_dc, rtol=1e-12, atol=0.0)
            assert np.allclose(np.where(charging, e_mid / e_ac, e_ac / e_mid),
                               eta_ac, rtol=1e-12, atol=0.0)

            # the current balances the DC power against the reference OCV
            eta2 = eta_ac * eta_dc
            p_dc = np.where(charging, p_ac[:, j] * eta2, p_ac[:, j] / eta2)
            v_oc = c.n_series * open_circuit_voltage(soc[:, j], cell.ocv)
            balance = (c.r_ohm_agg * cur * cur
                       + (v_oc + c.r_pol_agg * ipol[:, j]) * cur - p_dc)
            assert np.all(np.abs(balance) <= 1e-12 * np.abs(p_dc))

            ss = steady_state_loss(cur, cell) * scale_wh * dt
            assert np.allclose(E[SS, :, j], ss, rtol=1e-14, atol=0.0)

            for r, i in enumerate(cur.tolist()):
                i0 = float(ipol[r, j])
                ref = step_polarization(RcState(i_pol=i0), i, dt, cell)
                assert ipol_new[r, j] == pytest.approx(ref.i_pol, rel=1e-14)
                # the transient loss along the branch's closed-form path;
                # transient_loss reads only the state's i_pol
                path = SimpleNamespace(
                    i_pol=i + (i0 - i) * np.exp(-t / cell.time_constant_s))
                ts = np.trapezoid(transient_loss(path, i, cell), t) * scale_wh
                # relative to the larger of the two terms TS is made of
                terms = max(E[POLARIZATION, r, j], c.r_pol_agg * i * i * dt
                            / 3600.0)
                assert abs(E[TS, r, j] - ts) <= 1e-6 * terms


def _bits(*values) -> bytes:
    """The IEEE bytes of float values, so that 0.0 and -0.0 differ."""
    return np.array(values, dtype=float).tobytes()


def _ledger_bits(ledger: LossBreakdown) -> bytes:
    return _bits(*dataclasses.astuple(ledger))


def _assert_same_plant(got: Plant, want: Plant):
    assert got.soc.tobytes() == want.soc.tobytes()
    assert got.ipol.tobytes() == want.ipol.tobytes()
    assert _bits(got.t_elapsed, got.max_balance_residual_rel) == _bits(
        want.t_elapsed, want.max_balance_residual_rel)
    assert _ledger_bits(got.cumulative) == _ledger_bits(want.cumulative)


# step lengths from 1 s to 1 h that divide one day, as a plant's must
DAY_STEPS = st.integers(24, 86_400).map(lambda n: 86_400.0 / n)

# tiny polarization currents: products with the decay factor reach -0.0
# through the subnormals, where the kernel's "+ current" turns it into 0.0
TINY_IPOL = (-5e-324, -1e-310, -2.2250738585072014e-308, -0.0, 0.0, 5e-324)


@st.composite
def idle_runs(draw):
    """A plant of the three cluster kinds in a drawn state and history, an
    allocation k, a step count n and a cluster-step budget
    (REPLAY_CLUSTER_STEPS) small enough that n crosses several records."""
    m = draw(st.integers(1, 6))
    kinds = tuple(draw(st.lists(st.sampled_from(CLUSTER_KINDS), min_size=m,
                                max_size=m)))
    cfg = PlantConfig(clusters=kinds, dt_s=draw(DAY_STEPS),
                      soc_min=SOC_MIN, soc_max=SOC_MAX)

    def floats(elements):
        return np.array(draw(st.lists(elements, min_size=m, max_size=m)))

    soc = floats(st.one_of(st.sampled_from([SOC_MIN, SOC_MAX]),
                           st.floats(SOC_MIN, SOC_MAX)))
    ipol = floats(st.one_of(st.sampled_from(TINY_IPOL),
                            st.floats(-150.0, 150.0)))
    k = floats(st.floats(0.0, 1.0)) + 1e-3
    history = (draw(st.floats(0.0, 1e8)), draw(st.floats(0.0, 1e-15)),
               LossBreakdown(*draw(st.lists(st.floats(-1e6, 1e6),
                                            min_size=7, max_size=7))))
    budget = draw(st.integers(1, 8 * m))
    n = draw(st.integers(1, 40))
    return cfg, soc, ipol, k / k.sum(), history, budget, n


def _twins(cfg, history, soc=None, ipol=None):
    """Two plants of config cfg in the same state: the ledger history
    (t_elapsed, max_balance_residual_rel, cumulative) and, when given, soc
    and ipol."""
    plants = []
    for _ in range(2):
        plant = Plant(cfg)
        if soc is not None:
            plant.soc, plant.ipol = soc.copy(), ipol.copy()
        (plant.t_elapsed, plant.max_balance_residual_rel,
         cumulative) = history
        plant.cumulative = dataclasses.replace(cumulative)
        plants.append(plant)
    return plants


class TestZeroSteps:
    """n zero steps of the general loop, booked in one call, against n
    single zero-command Plant.step calls booked one at a time: the same
    step results, state, elapsed time, ledger and worst residual, byte for
    byte, whatever the size of the loop's record."""

    @staticmethod
    def _assert_same_steps(batched, single, k, n):
        tf_idle = batched.transformer_split(0.0)[1]
        steps = _Steps(demand_w=np.zeros(n), target_w=np.zeros(n),
                       tf_w=np.full(n, tf_idle), totals=np.zeros((E_DC, n)),
                       e_dc0=np.zeros(n), truncated=np.zeros(n, dtype=bool),
                       alloc=None)
        _run_general(batched, steps, k, "balanced", None, 1)
        assert steps.done == n
        columns = batched.book(steps.totals, steps.tf_w)
        for i in range(n):
            want = _book_step(single, 0.0, k)
            got = LossBreakdown(**{name: column[i]
                                   for name, column in columns.items()})
            assert _ledger_bits(got) == _ledger_bits(want[0])
            assert (_bits(*steps.totals[:, i], steps.e_dc0[i])
                    == _bits(*want[1], want[2]))
            assert not steps.truncated[i] and want[3] is False
        _assert_same_plant(batched, single)

    @settings(max_examples=200)
    @given(idle_runs())
    def test_equals_single_zero_steps(self, run):
        cfg, soc, ipol, k, history, budget, n = run
        batched, single = _twins(cfg, history, soc, ipol)
        with mock.patch.object(bessim.plant, "REPLAY_CLUSTER_STEPS", budget):
            self._assert_same_steps(batched, single, k, n)

    def test_equals_single_zero_steps_at_module_budget(self):
        # 100 clusters of the three kinds: 40 steps per record, so 130
        # steps take four replays
        cfg = PlantConfig(clusters=(CLUSTER_KINDS * 34)[:100], dt_s=60.0)
        rng = np.random.default_rng(3)
        soc = rng.uniform(SOC_MIN, SOC_MAX, 100)
        soc[:2] = SOC_MIN, SOC_MAX
        ipol = rng.uniform(-150.0, 150.0, 100)
        batched, single = _twins(cfg, (0.0, 0.0, LossBreakdown()), soc, ipol)
        self._assert_same_steps(batched, single, np.full(100, 0.01), 130)


ENERGIES_WH = st.floats(-1e6, 1e6)


@st.composite
def bookings(draw):
    """A one-cluster plant config with a drawn step length, a ledger
    history, and n steps to book: (E_DC, n) cluster totals (Wh) and (n,)
    transformer loss powers (W), n from 0."""
    n = draw(st.integers(0, 30))
    cfg = uniform_plant_config(1, dt_s=draw(DAY_STEPS))
    totals = np.array(draw(st.lists(ENERGIES_WH, min_size=E_DC * n,
                                    max_size=E_DC * n)), dtype=float)
    tf_w = np.array(draw(st.lists(st.floats(0.0, 1e5), min_size=n,
                                  max_size=n)), dtype=float)
    history = (draw(st.floats(0.0, 1e8)), draw(st.floats(0.0, 1.0)),
               LossBreakdown(*draw(st.lists(ENERGIES_WH, min_size=7,
                                            max_size=7))))
    return cfg, totals.reshape(E_DC, n), tf_w, history


# a ledger history to book onto: elapsed time, worst residual, running sums
HISTORY = (1234.5, 3e-16, LossBreakdown(1.0, 2.0, 3.0, 4.0, 5.0, -6.0, 7.0))


class TestBook:
    """Plant.book is the one ledger writer: booking n steps in one call is
    bit for bit booking them one call per step, and a run that raises
    books only the steps it completed."""

    @settings(max_examples=200)
    @given(bookings())
    def test_one_call_equals_one_call_per_step(self, booking):
        cfg, totals, tf_w, history = booking
        batched, single = _twins(cfg, history)
        columns = batched.book(totals, tf_w)
        assert set(columns) == {f.name for f in dataclasses.fields(
            LossBreakdown)}
        for i in range(tf_w.size):
            step = single.book(totals[:, i:i + 1], tf_w[i:i + 1])
            for name, column in columns.items():
                assert column[i:i + 1].tobytes() == step[name].tobytes(), name
        _assert_same_plant(batched, single)

    def test_empty_booking_leaves_plant_unchanged(self):
        booked, untouched = _twins(uniform_plant_config(2), HISTORY)
        columns = booked.book(np.zeros((E_DC, 0)), np.zeros(0))
        assert all(column.size == 0 for column in columns.values())
        _assert_same_plant(booked, untouched)

    # the valley straddles midnight, so each run's first step charges
    CHARGE_FIRST = synth_load(SynthLoadSpec(
        days=4, dt_s=300.0, base_w=1.2e6, valley_depth_w=0.3e6,
        valley_hour=1.0, valley_sigma_h=1.5, morning_peak_w=0.0,
        evening_peak_w=0.3e6, evening_sigma_h=0.8, noise_rel=0.003,
        day_jitter=0.02), 5)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_run_raising_at_first_step_books_nothing(self, uniform):
        profile = self.CHARGE_FIRST
        cfg = PlantConfig(clusters=(ClusterParams(),) * 4, dt_s=300.0)
        plant, untouched = _twins(cfg, HISTORY)
        # the first call of the loop's kernel raises; zero steps call none,
        # so the first planned sample is powered
        owner, kernel = ((plant.params, "scalar_step") if uniform
                         else (bessim.plant, "_advance"))
        with mock.patch.object(owner, kernel, side_effect=(
                InfeasiblePowerError("first step"))):
            with (contextlib.nullcontext() if uniform else _general_loop()):
                with pytest.raises(InfeasiblePowerError, match="first step"):
                    run_simulation(plant, profile, 200e3, 800e3)
        _assert_same_plant(plant, untouched)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_run_raising_mid_run_books_the_completed_steps(self, uniform):
        # from soc_max the first planned charge is dropped by the SoC gate;
        # the raise comes at the third powered step, after zero steps,
        # gate-dropped steps and powered steps
        profile = TestGeneralPathMatchesFastPath.PROFILE
        cfg = PlantConfig(clusters=(ClusterParams(),) * 4, dt_s=300.0,
                          initial_soc=PlantConfig.soc_max)
        loop = contextlib.nullcontext if uniform else _general_loop
        with loop():
            whole = run_simulation(Plant(cfg), profile, 200e3, 800e3,
                                   record_alloc=True)
        planned = replay_horizon(whole.plans, profile,
                                 gated=False)["demand_w"]
        powered = np.flatnonzero(whole.demand_w)
        k = int(powered[2])
        dropped = (planned[:k] != 0.0) & (whole.demand_w[:k] == 0.0)
        assert np.count_nonzero(planned[:k] == 0.0) > 0
        assert np.count_nonzero(dropped) > 0

        plant, single = _twins(cfg, HISTORY)
        if uniform:
            patch = mock.patch.object(plant.params, "scalar_step", _raising_at(
                plant.params.scalar_step, 2, "third powered step"))
        else:
            patch = mock.patch.object(Plant, "step", _raising_at(
                Plant.step, 2, "third powered step"))
        with patch, loop():
            with pytest.raises(InfeasiblePowerError, match="third powered"):
                run_simulation(plant, profile, 200e3, 800e3)
        for p, alloc in zip(whole.demand_w[:k].tolist(), whole.alloc_matrix):
            _book_step(single, p, alloc)
        assert plant.t_elapsed == HISTORY[0] + k * cfg.dt_s
        _assert_same_plant(plant, single)

    @staticmethod
    def _planned_with(k: int, p: float):
        """Patch run_simulation's planned demand: sample k is p."""
        def replay(*args, **kwargs):
            out = replay_horizon(*args, **kwargs)
            out["demand_w"][k] = p
            return out
        return mock.patch.object(bessim.simulate, "replay_horizon", replay)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_transformer_overload_raises_at_its_step(self, uniform):
        # the third powered step of the run from soc_max becomes a
        # discharge at load factor 1.3: the array pass takes it without
        # raising, and the step that executes it raises today's error
        profile = TestGeneralPathMatchesFastPath.PROFILE
        cfg = PlantConfig(clusters=(ClusterParams(),) * 4, dt_s=300.0,
                          initial_soc=PlantConfig.soc_max)
        loop = contextlib.nullcontext if uniform else _general_loop
        with loop():
            whole = run_simulation(Plant(cfg), profile, 200e3, 800e3,
                                   record_alloc=True)
        k = int(np.flatnonzero(whole.demand_w)[2])
        overload = -1.3 * cfg.transformer.rated_power_w

        plant, single = _twins(cfg, HISTORY)
        with self._planned_with(k, overload), loop():
            with pytest.raises(DomainError) as e:
                run_simulation(plant, profile, 200e3, 800e3)
        assert str(e.value) == "load_factor above the 1.2 overload tolerance"
        for p, alloc in zip(whole.demand_w[:k].tolist(), whole.alloc_matrix):
            _book_step(single, p, alloc)
        assert plant.t_elapsed == HISTORY[0] + k * cfg.dt_s
        _assert_same_plant(plant, single)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_transformer_overload_dropped_by_the_gate_is_harmless(
            self, uniform):
        # from soc_min the SoC gate drops a discharge in the first sample,
        # an overload as much as 1 W
        profile = TestGeneralPathMatchesFastPath.PROFILE
        cfg = PlantConfig(clusters=(ClusterParams(),) * 4, dt_s=300.0,
                          initial_soc=PlantConfig.soc_min)
        runs = []
        for p in (-1.3 * cfg.transformer.rated_power_w, -1.0):
            plant = Plant(cfg)
            loop = contextlib.nullcontext() if uniform else _general_loop()
            with self._planned_with(0, p), loop:
                runs.append((plant, run_simulation(plant, profile, 200e3,
                                                   800e3)))
        (plant, result), (plant_1w, result_1w) = runs
        assert result.demand_w[0] == 0.0
        for name in ("demand_w", "cluster_target_w") + (
                TestGeneralPathMatchesFastPath.TRACES_WH):
            assert (getattr(result, name).tobytes()
                    == getattr(result_1w, name).tobytes()), name
        _assert_same_plant(plant, plant_1w)

    def test_uniform_rating_breach_raises_plant_steps_error(self):
        # at share 0.5 of four clusters, the second step commands each
        # cluster about 72 kW of its 50 kW: the uniform loop raises there
        # with the error Plant.step raises for that command
        cfg = PlantConfig(clusters=(ClusterParams(),) * 4, dt_s=300.0)
        plant = Plant(cfg)
        demand = np.array([50e3, 150e3, 50e3])
        steps = _Steps(demand_w=demand.copy(), target_w=np.zeros(3),
                       tf_w=np.zeros(3), totals=np.zeros((E_DC, 3)),
                       e_dc0=np.zeros(3), truncated=np.zeros(3, dtype=bool),
                       alloc=None)
        with pytest.raises(DomainError) as e:
            _run_uniform(plant, steps, 0.5)
        assert steps.done == 1
        with pytest.raises(DomainError) as want:
            Plant(cfg).step(plant.net_cluster_power(150e3), np.full(4, 0.5))
        assert str(e.value) == str(want.value)
        assert "cluster 0 commanded 72" in str(e.value)

    def test_uniform_sample_the_scalar_code_takes_is_not_stepped(self):
        # a sample the array pass marks not ok is never stepped: were the
        # scalar code to take it, the loop raises on its own
        cfg = PlantConfig(clusters=(ClusterParams(),) * 4, dt_s=300.0)
        plant = Plant(cfg)
        steps = _Steps(demand_w=np.array([50e3, 150e3, 50e3]),
                       target_w=np.zeros(3), tf_w=np.zeros(3),
                       totals=np.zeros((E_DC, 3)), e_dc0=np.zeros(3),
                       truncated=np.zeros(3, dtype=bool), alloc=None)
        with (mock.patch.object(Plant, "_cluster_targets"),
              pytest.raises(AssertionError, match="step 1")):
            _run_uniform(plant, steps, 0.5)
        assert steps.done == 1


def _raising_at(fn, n: int, message: str):
    """fn, except that its call number n (from 0) raises
    InfeasiblePowerError(message)."""
    calls = []

    def counted(*args):
        if len(calls) == n:
            raise InfeasiblePowerError(message)
        calls.append(None)
        return fn(*args)
    return counted


class TestReplayChunks:
    """replay_steps calls the kernel on REPLAY_CLUSTER_STEPS cluster-steps
    at most, and the general loop replays its record of that many
    cluster-steps whenever it is full. One or three steps per call, or the
    module's budget, give the same run bit for bit on both loops, and a
    run that raises at the edge of a record books the steps it
    completed."""

    @pytest.mark.parametrize("uniform", [True, False])
    def test_chunk_size_does_not_change_the_run(self, uniform):
        profile = TestGeneralPathMatchesFastPath.PROFILE
        cfg = PlantConfig(clusters=(ClusterParams(),) * 4, dt_s=300.0,
                          initial_soc=PlantConfig.soc_max)
        # the uniform loop replays one column, the general loop all four
        columns = 1 if uniform else len(cfg.clusters)
        runs = []
        default = bessim.plant.REPLAY_CLUSTER_STEPS
        for budget in (columns, 3 * columns, default):
            plant = Plant(cfg)
            with (mock.patch.object(bessim.plant, "REPLAY_CLUSTER_STEPS",
                                    budget),
                  mock.patch.object(bessim.simulate, "replay_steps",
                                    wraps=bessim.plant.replay_steps) as replay,
                  contextlib.nullcontext() if uniform else _general_loop()):
                result = run_simulation(plant, profile, 200e3, 800e3,
                                        record_alloc=True)
            # the uniform loop replays once when it ends; the general loop
            # each time its record of budget // m steps is full, and once
            # when it ends
            record = budget // columns
            assert replay.call_count == (
                1 if uniform else -(-profile.n_samples // record))
            runs.append((plant, result))
        (first, want), rest = runs[0], runs[1:]
        arrays = [f.name for f in dataclasses.fields(want)
                  if isinstance(getattr(want, f.name), np.ndarray)]
        assert len(arrays) == 15
        for plant, result in rest:
            for name in arrays:
                assert (getattr(result, name).tobytes()
                        == getattr(want, name).tobytes()), name
            _assert_same_plant(plant, first)

    # From soc_max the general loop's first powered steps are 220, 221 ...
    # With a record of three steps, the raise at the fifth, sixth or
    # seventh of them comes at the last step of a record, the first step of
    # the next one, or the step after that; the records before the raise
    # hold powered steps.
    @pytest.mark.parametrize("call, row", [(4, 2), (5, 0), (6, 1)])
    def test_general_run_raising_at_a_record_edge_books_the_completed_steps(
            self, call, row):
        profile = TestGeneralPathMatchesFastPath.PROFILE
        cfg = PlantConfig(clusters=(ClusterParams(),) * 4, dt_s=300.0,
                          initial_soc=PlantConfig.soc_max)
        with _general_loop():
            whole = run_simulation(Plant(cfg), profile, 200e3, 800e3,
                                   record_alloc=True)
        powered = np.flatnonzero(whole.demand_w)
        k = int(powered[call])
        assert powered[0] == 220 and k == powered[0] + call and k % 3 == row

        plant, single = _twins(cfg, HISTORY)
        with (mock.patch.object(bessim.plant, "REPLAY_CLUSTER_STEPS", 3 * 4),
              mock.patch.object(Plant, "step", _raising_at(
                  Plant.step, call, "record edge")),
              _general_loop()):
            with pytest.raises(InfeasiblePowerError, match="record edge"):
                run_simulation(plant, profile, 200e3, 800e3)
        for p, alloc in zip(whole.demand_w[:k].tolist(), whole.alloc_matrix):
            _book_step(single, p, alloc)
        assert plant.t_elapsed == HISTORY[0] + k * cfg.dt_s
        _assert_same_plant(plant, single)


class TestRunSimulationReplay:
    """run_simulation steps each run of planned zero demand in batches;
    re-stepping a fresh plant one sample at a time with the executed demand
    and the recorded allocation reproduces every trace and the final plant
    state bit for bit."""

    PROFILE = synth_load(SynthLoadSpec(
        days=2, dt_s=300.0, base_w=1.2e6, valley_depth_w=0.3e6,
        valley_sigma_h=1.5, morning_peak_w=0.0, evening_peak_w=0.3e6,
        evening_sigma_h=0.8, noise_rel=0.003, day_jitter=0.02), 11)
    CFG = PlantConfig(clusters=CLUSTER_KINDS + (ClusterParams(),),
                      dt_s=300.0)

    def _fresh(self) -> Plant:
        plant = Plant(self.CFG)
        plant.soc = np.array([0.35, 0.5, 0.55, 0.7])
        return plant

    @pytest.mark.parametrize("alloc_mode", ["balanced", "pso"])
    def test_single_steps_reproduce_the_run(self, alloc_mode):
        result = run_simulation(self._fresh(), self.PROFILE, 150e3, 600e3,
                                alloc_mode=alloc_mode, record_alloc=True)
        planned = replay_horizon(result.plans, self.PROFILE,
                                 gated=False)["demand_w"]
        # the plan holds runs of zero demand, some of them -0.0
        assert np.count_nonzero(planned == 0.0) > 100
        assert np.signbit(planned[planned == 0.0]).any()
        # every executed zero is the +0.0 that the cap writes
        assert not np.signbit(result.demand_w[result.demand_w == 0.0]).any()

        plant = self._fresh()
        step_h = self.CFG.dt_s / 3600.0
        rows = []
        for p, k in zip(result.demand_w.tolist(), result.alloc_matrix):
            ledger, totals, e_dc0, truncated = _book_step(plant, p, k)
            rows.append((plant.transformer_split(p)[0], totals[E_AC] / step_h,
                         e_dc0 / step_h,
                         ledger.grid_wh, ledger.stored_wh,
                         ledger.transformer_wh, ledger.acdc_wh,
                         ledger.dcdc_wh, ledger.battery_ohmic_wh,
                         ledger.battery_polarization_wh, totals[SS],
                         totals[TS], truncated))
        columns = dict(zip(
            ("cluster_target_w", "delivered_w", "cluster0_dc_w", "grid_wh",
             "stored_wh", "transformer_wh", "acdc_wh", "dcdc_wh", "ohmic_wh",
             "polarization_wh", "ss_wh", "ts_wh", "truncated"), zip(*rows)))
        for name, column in columns.items():
            want = np.array(column, dtype=getattr(result, name).dtype)
            assert want.tobytes() == getattr(result, name).tobytes(), name
        _assert_same_plant(result.plant, plant)
        assert plant.t_elapsed == self.PROFILE.n_samples * self.CFG.dt_s
