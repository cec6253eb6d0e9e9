
import numpy as np
import pytest

from bessim.errors import DomainError
from bessim.losses import (
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
)
from bessim.plant import ClusterParams, _ParamArrays, _horner


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

    def test_callable_form(self):
        c = PcsEfficiencyCoeffs()
        assert c(0.5) == pcs_efficiency(0.5, c)


class TestOpenCircuitVoltage:
    def test_anchor_points(self):
        c = OcvCoeffs()
        assert open_circuit_voltage(0.0, c) == pytest.approx(2.484)
        assert open_circuit_voltage(0.5, c) == pytest.approx(2.9254, abs=1e-3)
        assert open_circuit_voltage(1.0, c) == pytest.approx(3.443, abs=1e-3)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            open_circuit_voltage(1.01, OcvCoeffs())

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
