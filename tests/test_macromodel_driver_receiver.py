"""Tests for the regressor machinery, the driver and the receiver macromodels."""

import numpy as np
import pytest

from repro.macromodel.driver import DriverMacromodel, LogicStimulus, SwitchingWeights
from repro.macromodel.library import (
    driver_pulldown_current,
    driver_pullup_current,
)
from repro.macromodel.receiver import LinearSubmodel
from repro.macromodel.regressor import RegressorSpec, build_regression_data


class TestRegressor:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RegressorSpec(dynamic_order=0, sampling_time=1e-12)
        with pytest.raises(ValueError):
            RegressorSpec(dynamic_order=2, sampling_time=0.0)

    def test_build_regression_data_shapes(self):
        v = np.arange(10.0)
        i = np.arange(10.0) * 0.1
        v_now, x_v, x_i, target = build_regression_data(v, i, 3)
        assert v_now.shape == (7,)
        assert x_v.shape == (7, 3)
        assert x_i.shape == (7, 3)
        assert target.shape == (7,)

    def test_build_regression_data_alignment(self):
        v = np.arange(6.0)
        i = 10.0 + np.arange(6.0)
        v_now, x_v, x_i, target = build_regression_data(v, i, 2)
        # sample m=2: present v=2, past v = [1, 0], past i = [11, 10]
        assert v_now[0] == 2.0
        np.testing.assert_allclose(x_v[0], [1.0, 0.0])
        np.testing.assert_allclose(x_i[0], [11.0, 10.0])
        assert target[0] == 12.0

    def test_too_short_record_rejected(self):
        with pytest.raises(ValueError):
            build_regression_data(np.zeros(3), np.zeros(3), 2)


class TestLogicStimulus:
    def test_from_pattern_010(self):
        stim = LogicStimulus.from_pattern("010", 2e-9)
        assert stim.initial_state == 0
        assert stim.events == ((2e-9, 1), (4e-9, 0))

    def test_state_at(self):
        stim = LogicStimulus.from_pattern("010", 2e-9)
        assert stim.state_at(1e-9) == 0
        assert stim.state_at(3e-9) == 1
        assert stim.state_at(5e-9) == 0

    def test_repeated_bits_collapse(self):
        stim = LogicStimulus.from_pattern("0011", 1e-9)
        assert stim.events == ((2e-9, 1),)

    def test_last_event_before(self):
        stim = LogicStimulus.from_pattern("0101", 1e-9)
        assert stim.last_event_before(0.5e-9) is None
        assert stim.last_event_before(2.5e-9) == (2e-9, 0)

    def test_invalid_pattern(self):
        with pytest.raises(ValueError):
            LogicStimulus.from_pattern("", 1e-9)
        with pytest.raises(ValueError):
            LogicStimulus.from_pattern("012", 1e-9)


class TestSwitchingWeights:
    def test_raised_cosine_limits(self):
        w = SwitchingWeights.raised_cosine(0.5e-9, 25e-12)
        assert w.up_wu[0] == pytest.approx(0.0)
        assert w.up_wu[-1] == pytest.approx(1.0)
        assert w.up_wd[0] == pytest.approx(1.0)
        assert w.up_wd[-1] == pytest.approx(0.0)

    def test_weights_sum_to_one_for_raised_cosine(self):
        w = SwitchingWeights.raised_cosine(0.5e-9, 25e-12)
        np.testing.assert_allclose(w.up_wu + w.up_wd, 1.0)

    def test_steady_state_before_first_event(self):
        w = SwitchingWeights.raised_cosine(0.5e-9, 25e-12)
        stim = LogicStimulus.from_pattern("010", 2e-9)
        assert w.weights_at(0.5e-9, stim) == (0.0, 1.0)

    def test_long_after_up_transition(self):
        w = SwitchingWeights.raised_cosine(0.5e-9, 25e-12)
        stim = LogicStimulus.from_pattern("01", 2e-9)
        wu, wd = w.weights_at(3.9e-9, stim)
        assert wu == pytest.approx(1.0)
        assert wd == pytest.approx(0.0)

    def test_mid_transition_interpolation(self):
        w = SwitchingWeights.raised_cosine(0.4e-9, 25e-12)
        stim = LogicStimulus.from_pattern("01", 1e-9)
        wu, wd = w.weights_at(1e-9 + 0.2e-9, stim)
        assert wu == pytest.approx(0.5, abs=0.05)
        assert wd == pytest.approx(0.5, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchingWeights(template_dt=0.0, up_wu=[0, 1], up_wd=[1, 0], down_wu=[1, 0], down_wd=[0, 1])
        with pytest.raises(ValueError):
            SwitchingWeights(template_dt=1e-12, up_wu=[0.0], up_wd=[1.0], down_wu=[1, 0], down_wd=[0, 1])


class TestDriverMacromodel:
    def test_requires_stimulus(self, driver_model):
        with pytest.raises(RuntimeError):
            driver_model.current(0.0, np.zeros(2), np.zeros(2), 0.0)

    def test_static_low_state_matches_analytic(self, driver_model, params):
        bound = driver_model.bound(LogicStimulus.from_pattern("0", 2e-9))
        for v in (0.3, 0.9, 1.5):
            xv = np.full(2, v)
            truth = float(driver_pulldown_current(v, params))
            xi = np.full(2, truth)
            assert bound.current(v, xv, xi, 1e-9) == pytest.approx(truth, abs=6e-3)

    def test_static_high_state_matches_analytic(self, driver_model, params):
        bound = driver_model.bound(LogicStimulus.from_pattern("1", 2e-9))
        for v in (0.3, 0.9, 1.5):
            xv = np.full(2, v)
            truth = float(driver_pullup_current(v, params))
            xi = np.full(2, truth)
            assert bound.current(v, xv, xi, 1e-9) == pytest.approx(truth, abs=6e-3)

    def test_weight_blend_during_switching(self, driver_model):
        bound = driver_model.bound(LogicStimulus.from_pattern("01", 2e-9))
        xv, xi = np.zeros(2), np.zeros(2)
        # mid-transition the current is between the two pure-state currents
        i_mid = bound.current(0.9, np.full(2, 0.9), xi, 2e-9 + 0.25e-9)
        i_low = bound.current(0.9, np.full(2, 0.9), xi, 1e-9)
        i_high = bound.current(0.9, np.full(2, 0.9), xi, 3.9e-9)
        assert min(i_low, i_high) - 1e-3 <= i_mid <= max(i_low, i_high) + 1e-3
        del xv

    def test_dcurrent_dv_finite_difference(self, driver_model):
        bound = driver_model.bound(LogicStimulus.from_pattern("01", 2e-9))
        xv = np.full(2, 0.7)
        xi = np.zeros(2)
        t = 2.3e-9
        h = 1e-6
        fd = (bound.current(0.7 + h, xv, xi, t) - bound.current(0.7 - h, xv, xi, t)) / (2 * h)
        assert bound.dcurrent_dv(0.7, xv, xi, t) == pytest.approx(fd, rel=1e-3, abs=1e-6)

    def test_rest_voltage(self, driver_model):
        low = driver_model.bound(LogicStimulus.from_pattern("0", 2e-9))
        high = driver_model.bound(LogicStimulus.from_pattern("1", 2e-9))
        assert low.rest_voltage(0.0, 1.8) == 0.0
        assert high.rest_voltage(0.0, 1.8) == 1.8

    def test_submodel_order_mismatch_rejected(self, driver_model):
        with pytest.raises(ValueError):
            DriverMacromodel(
                submodel_up=driver_model.submodel_up,
                submodel_down=LinearSubmodelStub(),
                weights=driver_model.weights,
                sampling_time=25e-12,
            )


class LinearSubmodelStub:
    """Minimal stand-in with a mismatched dynamic order."""

    dynamic_order = 5


class TestReceiverMacromodel:
    def test_linear_submodel_from_capacitance(self):
        ts = 25e-12
        lin = LinearSubmodel.from_capacitance(1e-12, 1e-6, ts, order=2)
        # constant voltage -> only the leakage term remains
        v = 1.0
        i = lin.current(v, np.array([v, v]), np.zeros(2))
        assert i == pytest.approx(1e-6, rel=1e-6)

    def test_linear_submodel_capacitive_step(self):
        ts = 25e-12
        c = 1e-12
        lin = LinearSubmodel.from_capacitance(c, 0.0, ts, order=1)
        # dv of 0.1 V in one sample -> i = C dv/dt
        i = lin.current(0.1, np.array([0.0]), np.zeros(1))
        assert i == pytest.approx(c * 0.1 / ts)

    def test_receiver_in_rail_current_is_small(self, receiver_model):
        xv = np.full(2, 0.9)
        xi = np.zeros(2)
        assert abs(receiver_model.current(0.9, xv, xi)) < 1e-3

    @staticmethod
    def _steady_current(model, v, iterations=80):
        """Self-consistent static current (the current regressors must hold the
        port's own steady current, as they do in a real simulation)."""
        xv = np.full(model.dynamic_order, v)
        i = 0.0
        for _ in range(iterations):
            i = model.current(v, xv, np.full(model.dynamic_order, i))
        return i

    def test_receiver_overshoot_clamps(self, receiver_model, params):
        # well past the clamp knee the protection current is large
        strong = self._steady_current(receiver_model, params.vdd + 1.1)
        mild = self._steady_current(receiver_model, params.vdd + 0.4)
        assert strong > 5e-3
        # mild overshoot draws far less current than the strong one
        assert mild < strong

    def test_receiver_undershoot_clamps(self, receiver_model, params):
        assert self._steady_current(receiver_model, -1.1) < -5e-3

    def test_receiver_derivative_finite_difference(self, receiver_model):
        xv = np.full(2, 2.2)
        xi = np.zeros(2)
        h = 1e-6
        fd = (receiver_model.current(2.2 + h, xv, xi) - receiver_model.current(2.2 - h, xv, xi)) / (2 * h)
        assert receiver_model.dcurrent_dv(2.2, xv, xi) == pytest.approx(fd, rel=1e-3, abs=1e-7)

    def test_mismatched_orders_rejected(self, receiver_model):
        lin = LinearSubmodel(b0=0.0, b_past=np.zeros(3), a_past=np.zeros(3))
        with pytest.raises(ValueError):
            type(receiver_model)(
                linear=lin,
                protection_up=receiver_model.protection_up,
                protection_down=receiver_model.protection_down,
                sampling_time=25e-12,
            )


class TestReferenceParameters:
    def test_static_curves_sign_conventions(self, params):
        # LOW state sinks current (positive into the device) for v > 0.
        assert float(driver_pulldown_current(0.9, params)) > 0
        # HIGH state sources current (negative into the device) for v < Vdd.
        assert float(driver_pullup_current(0.9, params)) < 0
        # At the rails the respective transistor currents vanish.
        assert float(driver_pulldown_current(0.0, params)) == pytest.approx(0.0, abs=1e-12)
        assert float(driver_pullup_current(params.vdd, params)) == pytest.approx(0.0, abs=1e-12)

    def test_parameters_frozen(self, params):
        with pytest.raises(Exception):
            params.vdd = 2.5
