
import math

import numpy as np
import pytest

from bessim.errors import DomainError
from bessim.losses import (
    PCS_EFFICIENCY_FLOOR,
    CellParams,
    OcvCoeffs,
    PcsEfficiencyCoeffs,
    RcState,
    TransformerParams,
    open_circuit_voltage,
    pcs_efficiency,
    steady_state_loss,
    step_polarization,
    total_battery_loss,
    transformer_loss,
    transient_loss,
    _efficiency,
    _horner,
)
from bessim.plant import ClusterParams, _ParamArrays, _advance


class TestTransformerLoss:
    def test_zero_load_leaves_only_core_loss(self):
        p = TransformerParams()
        assert transformer_loss(0.0, p) == 5000.0

    def test_rated_load(self):
        p = TransformerParams()
        assert transformer_loss(1.0, p) == 40000.0

    def test_half_load(self):
        p = TransformerParams()
        assert transformer_loss(0.5, p) == pytest.approx(13750.0)

    def test_negative_load_factor_rejected(self):
        with pytest.raises(DomainError):
            transformer_loss(-0.1, TransformerParams())

    def test_overload_beyond_tolerance_rejected(self):
        with pytest.raises(DomainError):
            transformer_loss(1.21, TransformerParams())

    def test_nan_load_factor_rejected(self):
        with pytest.raises(DomainError):
            transformer_loss(math.nan, TransformerParams())

    def test_array_is_the_scalar_calls(self):
        # a float is the one-element case: a float back, and an array of
        # load factors gives each one's scalar loss, bit for bit
        p = TransformerParams()
        lam = [0.0, 0.1, 0.5, 1.0, 1.2, 0.3333333333333333]
        got = transformer_loss(np.array(lam), p)
        assert [v.hex() for v in got.tolist()] == [
            transformer_loss(x, p).hex() for x in lam]
        assert type(transformer_loss(0.5, p)) is float

    @pytest.mark.parametrize("bad, message", [
        (1.21, "above the 1.2 overload tolerance"),
        (math.nan, "must be non-negative")])
    def test_array_with_one_bad_load_factor_rejected(self, bad, message):
        with pytest.raises(DomainError, match=message):
            transformer_loss(np.array([0.5, bad, 1.0]), TransformerParams())

    def test_mask_is_the_domain_of_transformer_loss(self):
        # masked, it raises nothing: ok is false exactly where it raises
        # unmasked, and elsewhere the loss is its loss
        p = TransformerParams()
        lam = [0.0, 0.5, 1.2, np.nextafter(1.2, 2.0), 7.0, -0.1, math.nan]
        loss, ok = transformer_loss(np.array(lam), p, masked=True)
        assert ok.tolist() == [True] * 3 + [False] * 4
        for x, got in zip(lam[:3], loss.tolist()):
            assert got.hex() == transformer_loss(x, p).hex()
        for x in lam[3:]:
            with pytest.raises(DomainError):
                transformer_loss(x, p)

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            TransformerParams(no_load_loss_w=0.0)
        with pytest.raises(DomainError):
            TransformerParams(rated_load_loss_w=7e6, rated_power_w=6.3e6)


class TestPcsEfficiency:
    def test_anchor_points(self):
        c = PcsEfficiencyCoeffs()
        assert pcs_efficiency(0.0, c) == pytest.approx(0.7868)
        assert pcs_efficiency(0.5, c) == pytest.approx(0.8826, abs=1e-4)
        assert pcs_efficiency(1.0, c) == pytest.approx(0.8326, abs=1e-4)

    def test_array_input(self):
        c = PcsEfficiencyCoeffs()
        lam = np.array([0.0, 0.5, 1.0])
        out = pcs_efficiency(lam, c)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.8826, abs=1e-4)

    def test_out_of_range_rejected(self):
        c = PcsEfficiencyCoeffs()
        with pytest.raises(DomainError):
            pcs_efficiency(1.5, c)
        with pytest.raises(DomainError):
            pcs_efficiency(-0.1, c)

    def test_coefficients_leaving_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            PcsEfficiencyCoeffs((1.2, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            PcsEfficiencyCoeffs((0.0, 0.0, 0.0, 0.0, 0.0))

    def test_nan_load_factor_rejected(self):
        c = PcsEfficiencyCoeffs()
        with pytest.raises(DomainError):
            pcs_efficiency(math.nan, c)
        with pytest.raises(DomainError):
            pcs_efficiency(np.array([0.5, math.nan]), c)


class TestOpenCircuitVoltage:
    def test_anchor_points(self):
        c = OcvCoeffs()
        assert open_circuit_voltage(0.0, c) == pytest.approx(2.484)
        assert open_circuit_voltage(0.5, c) == pytest.approx(2.9254, abs=1e-3)
        assert open_circuit_voltage(1.0, c) == pytest.approx(3.443, abs=1e-3)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            open_circuit_voltage(1.01, OcvCoeffs())

    def test_nan_soc_rejected(self):
        with pytest.raises(DomainError):
            open_circuit_voltage(math.nan, OcvCoeffs())

    def test_non_monotone_fit_rejected(self):
        with pytest.raises(DomainError):
            OcvCoeffs((3.0, -1.0, 0.0, 0.0))

    def test_non_positive_fit_rejected(self):
        with pytest.raises(DomainError):
            OcvCoeffs((-1.0, 5.0, 0.0, 0.0))

    def test_antiderivative_matches_numeric_integral(self):
        # the step kernel's table holds the antiderivative divided by soc
        c = OcvCoeffs()
        pp = _ParamArrays((ClusterParams(cell=CellParams(ocv=c)),), 0.03, 0.97,
                          60.0)

        def anti(s):
            return _horner(pp.ocv_anti, s) * s

        soc = np.linspace(0.0, 1.0, 100001)
        numeric = np.trapezoid(open_circuit_voltage(soc, c), soc)
        assert anti(1.0) - anti(0.0) == pytest.approx(numeric, rel=1e-9)


class TestPolarizationStep:
    def test_zero_length_step(self):
        s = step_polarization(RcState(), 10.0, 0.0, CellParams())
        assert s.i_pol == 0.0

    def test_one_time_constant_rise(self):
        p = CellParams()
        assert p.time_constant_s == pytest.approx(223.6835)
        s = step_polarization(RcState(), 10.0, p.time_constant_s, p)
        assert s.i_pol == pytest.approx(6.3212, abs=1e-3)

    def test_fixed_point(self):
        s = step_polarization(RcState(i_pol=7.0), 7.0, 1234.5, CellParams())
        assert s.i_pol == pytest.approx(7.0)

    def test_elapsed_time_accumulates(self):
        s = step_polarization(RcState(), 1.0, 60.0, CellParams())
        s = step_polarization(s, 1.0, 60.0, CellParams())
        assert s.t_elapsed == 120.0

    def test_negative_dt_rejected(self):
        with pytest.raises(DomainError):
            step_polarization(RcState(), 1.0, -1.0, CellParams())

    def test_nan_dt_rejected(self):
        with pytest.raises(DomainError):
            step_polarization(RcState(), 1.0, math.nan, CellParams())


class TestKernelAgreement:
    """The public models evaluate the step kernel's formulas, bit for bit."""

    # 48 s and 50 s are steps at which math.exp and np.exp round the
    # default cell's decay differently
    @pytest.mark.parametrize("dt", [48.0, 50.0, 60.0, 300.0])
    def test_polarization_step_is_the_kernels(self, dt):
        cluster = ClusterParams()
        pp = _ParamArrays((cluster,), 0.03, 0.97, dt)
        rng = np.random.default_rng(int(dt))
        soc = rng.uniform(0.1, 0.9, (200, 1))
        ipol = rng.uniform(-150.0, 150.0, (200, 1))
        p_ac = rng.uniform(-1.0, 1.0, (200, 1)) * cluster.rated_power_w
        _, ipol_new, current, *_ = _advance(soc, ipol, p_ac, pp)
        got = [step_polarization(RcState(i_pol=i0), i, dt, cluster.cell).i_pol
               for i0, i in zip(ipol.ravel().tolist(),
                                current.ravel().tolist())]
        assert np.array(got).tobytes() == ipol_new.ravel().tobytes()

    # np.polyval is the oracle of the Horner form here, nowhere else
    @pytest.mark.parametrize("a", [PcsEfficiencyCoeffs.a,
                                   (0.9, 0.1, -0.1, 0.05, -0.02)])
    def test_efficiency_is_the_polyval_fit(self, a):
        c = PcsEfficiencyCoeffs(a)
        lam = np.linspace(0.0, 1.0, 2001)
        want = np.clip(np.polyval(a[::-1], lam), PCS_EFFICIENCY_FLOOR, 1.0)
        assert pcs_efficiency(lam, c).tobytes() == want.tobytes()
        assert _efficiency(a, lam).tobytes() == want.tobytes()
        assert [pcs_efficiency(x, c) for x in lam[::40].tolist()] == (
            want[::40].tolist())

    def test_ocv_is_the_polyval_fit(self):
        c = OcvCoeffs()
        soc = np.linspace(0.0, 1.0, 2001)
        want = np.polyval(c.b[::-1], soc)
        assert open_circuit_voltage(soc, c).tobytes() == want.tobytes()
        assert _horner(c.b, soc).tobytes() == want.tobytes()
        assert [open_circuit_voltage(x, c) for x in soc[::40].tolist()] == (
            want[::40].tolist())


class TestLossSplit:
    def test_steady_state_anchors(self):
        p = CellParams()
        assert steady_state_loss(0.0, p) == 0.0
        assert steady_state_loss(10.0, p) == pytest.approx(4.17)
        assert steady_state_loss(-10.0, p) == pytest.approx(4.17)

    def test_transient_anchors(self):
        p = CellParams()
        assert transient_loss(RcState(i_pol=0.0), 10.0, p) == pytest.approx(-1.85)
        assert transient_loss(RcState(i_pol=5.0), 5.0, p) == 0.0
        assert transient_loss(RcState(i_pol=6.3212), 0.0, p) == pytest.approx(
            0.7392, abs=1e-3)

    def test_total_anchors(self):
        p = CellParams()
        assert total_battery_loss(RcState(), 0.0, p) == 0.0
        assert total_battery_loss(RcState(i_pol=0.0), 10.0, p) == pytest.approx(2.32)
        assert total_battery_loss(RcState(i_pol=10.0), 10.0, p) == pytest.approx(4.17)

    def test_split_identity_on_random_states(self):
        p = CellParams()
        rng = np.random.default_rng(0)
        for _ in range(200):
            i_pol = float(rng.uniform(-50, 50))
            cur = float(rng.uniform(-50, 50))
            st = RcState(i_pol=i_pol)
            total = total_battery_loss(st, cur, p)
            split = steady_state_loss(cur, p) + transient_loss(st, cur, p)
            assert total == pytest.approx(split, rel=1e-12, abs=1e-15)

    def test_invalid_cell_params_rejected(self):
        with pytest.raises(DomainError):
            CellParams(r_ohm=0.0)
        with pytest.raises(DomainError):
            CellParams(capacity_ah=-1.0)
