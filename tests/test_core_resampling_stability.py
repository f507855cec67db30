"""Tests for the resampling operator (Eq. 13) and its stability (Fig. 2)."""

import numpy as np
import pytest

from repro.core.resampling import (
    ResampledPortModel,
    continuous_eigenvalue,
    resampled_eigenvalue,
    resampling_matrix,
)
from repro.core.stability import (
    figure2_data,
    is_resampling_stable,
    resampled_stability_region,
    simulate_scalar_test_problem,
    unit_disc_samples,
)
from repro.macromodel.driver import LogicStimulus


class TestResamplingMatrix:
    def test_structure(self):
        q = resampling_matrix(4, 0.3)
        np.testing.assert_allclose(np.diag(q), 0.7)
        np.testing.assert_allclose(np.diag(q, -1), 0.3)
        assert np.count_nonzero(q) == 4 + 3

    def test_tau_one_is_pure_shift(self):
        q = resampling_matrix(3, 1.0)
        expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        np.testing.assert_allclose(q, expected)

    def test_row_sums(self):
        q = resampling_matrix(5, 0.4)
        sums = q.sum(axis=1)
        assert sums[0] == pytest.approx(0.6)
        np.testing.assert_allclose(sums[1:], 1.0)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            resampling_matrix(0, 0.5)


class TestEigenvalueMaps:
    def test_continuous_map(self):
        eta = continuous_eigenvalue(0.5, 25e-12)
        assert eta == pytest.approx(-0.5 / 25e-12)

    def test_resampled_map_matches_eq16(self):
        lam = 0.3 + 0.4j
        tau = 0.7
        assert resampled_eigenvalue(lam, tau) == pytest.approx(1 + tau * (lam - 1))

    def test_unit_disc_maps_into_stability_circle(self):
        tau = 0.6
        for lam in unit_disc_samples(6, 12):
            lt = resampled_eigenvalue(lam, tau)
            assert abs(lt - (1 - tau)) <= tau + 1e-12

    def test_stability_criterion(self):
        assert is_resampling_stable(0.2)
        assert is_resampling_stable(1.0)
        assert not is_resampling_stable(1.2)
        with pytest.raises(ValueError):
            is_resampling_stable(0.0)

    def test_region_properties(self):
        region = resampled_stability_region(0.5, 25e-12)
        assert region.circle_center == pytest.approx(0.5)
        assert region.circle_radius == pytest.approx(0.5)
        assert region.all_resampled_stable
        assert np.all(np.abs(region.discrete) < 1.0)
        assert np.all(np.real(region.continuous) < 0.0)

    def test_unstable_region_detected(self):
        region = resampled_stability_region(1.4)
        assert not region.all_resampled_stable

    def test_figure2_data_keys(self):
        data = figure2_data((0.25, 1.0))
        assert set(data) == {0.25, 1.0}

    def test_scalar_marching_stable_and_unstable(self):
        stable = simulate_scalar_test_problem(-0.9, 0.9, n_steps=300)
        unstable = simulate_scalar_test_problem(-0.9, 1.5, n_steps=300)
        assert stable[-1] <= 1.0 + 1e-9
        assert unstable[-1] > 10.0


class TestResampledPortModel:
    def test_rejects_unstable_tau(self, driver_model):
        ts = driver_model.sampling_time
        with pytest.raises(ValueError):
            ResampledPortModel(driver_model, 2.0 * ts)

    def test_allow_unstable_override(self, driver_model):
        ts = driver_model.sampling_time
        port = ResampledPortModel(driver_model, 2.0 * ts, allow_unstable=True)
        assert port.tau == pytest.approx(2.0)

    def test_commit_advances_time(self, driver_model):
        bound = driver_model.bound(LogicStimulus.from_pattern("0", 2e-9))
        port = ResampledPortModel(bound, 5e-12, v0=0.0)
        assert port.time == 0.0
        port.commit(0.1)
        assert port.time == pytest.approx(5e-12)

    def test_state_update_matches_eq13(self, receiver_model):
        dt = 5e-12
        port = ResampledPortModel(receiver_model, dt, v0=0.0, i0=0.0)
        tau = port.tau
        q = resampling_matrix(receiver_model.dynamic_order, tau)
        x_v_before = port.x_v.copy()
        x_i_before = port.x_i.copy()
        v = 0.8
        i_now = receiver_model.current(v, x_v_before, x_i_before, 0.0)
        port.commit(v)
        expected_xv = q @ x_v_before
        expected_xv[0] += tau * v
        expected_xi = q @ x_i_before
        expected_xi[0] += tau * i_now
        np.testing.assert_allclose(port.x_v, expected_xv)
        np.testing.assert_allclose(port.x_i, expected_xi)
        assert port.last_current == pytest.approx(i_now)

    def test_tau_one_reduces_to_native_stepping(self, receiver_model):
        """At dt = Ts the resampled update is the plain shift register."""
        ts = receiver_model.sampling_time
        port = ResampledPortModel(receiver_model, ts, v0=0.2, i0=0.0)
        voltages = [0.3, 0.5, 0.9, 1.4]
        x_v = np.full(receiver_model.dynamic_order, 0.2)
        x_i = np.zeros(receiver_model.dynamic_order)
        for k, v in enumerate(voltages):
            i_ref = receiver_model.current(v, x_v, x_i, k * ts)
            i_port = port.commit(v)
            assert i_port == pytest.approx(i_ref)
            x_v = np.concatenate(([v], x_v[:-1]))
            x_i = np.concatenate(([i_ref], x_i[:-1]))

    def test_reset_restores_initial_state(self, receiver_model):
        port = ResampledPortModel(receiver_model, 5e-12, v0=1.0, i0=0.1)
        port.commit(0.4)
        port.reset(v0=1.0, i0=0.1)
        np.testing.assert_allclose(port.x_v, 1.0)
        np.testing.assert_allclose(port.x_i, 0.1)
        assert port.time == 0.0

    def test_resampled_receiver_tracks_capacitive_current(self, receiver_model, params):
        """A linear ramp applied through the resampled model must produce
        approximately the C dV/dt current of the receiver input capacitance."""
        dt = 2e-12
        port = ResampledPortModel(receiver_model, dt, v0=0.0)
        slope = 1.0e9  # 1 V/ns
        i_samples = []
        for n in range(400):
            v = slope * n * dt
            i_samples.append(port.commit(v))
        expected = params.c_in * slope
        assert np.mean(i_samples[200:]) == pytest.approx(expected, rel=0.2)
