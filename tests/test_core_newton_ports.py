"""Tests for the Newton solver, the termination abstraction and the hybrid cell update."""

import numpy as np
import pytest

from repro.core.cosim import LinkDescription, SimulationResult
from repro.core.lumped_rbf import HybridCellUpdate
from repro.core.newton import MAX_ITERATIONS, NewtonStats, newton_solve_scalar_fused
from repro.core.ports import (
    OpenTermination,
    ParallelRCTermination,
    ResistorTermination,
    ResistiveSourceTermination,
)
from repro.core.resampling import ResampledPortModel
from repro.macromodel.driver import LogicStimulus


class TestNewton:
    def test_linear_equation_single_iteration(self):
        res = newton_solve_scalar_fused(lambda x: (2 * x - 4, 2.0), x0=0.0)
        assert res.converged
        assert res.x == pytest.approx(2.0)
        assert res.iterations == 1

    def test_cubic_root(self):
        res = newton_solve_scalar_fused(lambda x: (x**3 - 8, 3 * x**2), x0=3.0)
        assert res.converged
        assert res.x == pytest.approx(2.0, rel=1e-8)

    def test_already_converged_zero_iterations(self):
        res = newton_solve_scalar_fused(lambda x: (0.0, 1.0), x0=5.0)
        assert res.iterations == 0
        assert res.converged

    def test_iteration_cap_and_failure_flag(self):
        res = newton_solve_scalar_fused(lambda x: (np.cos(x) + 2, -np.sin(x) + 1e-3), 0.0)
        assert not res.converged
        assert res.iterations == MAX_ITERATIONS

    def test_stats_accumulation_and_merge(self):
        stats = NewtonStats()
        newton_solve_scalar_fused(lambda x: (x - 1, 1.0), 0.0, stats=stats)
        newton_solve_scalar_fused(lambda x: (x - 2, 1.0), 0.0, stats=stats)
        assert stats.total_solves == 2
        assert stats.mean_iterations == pytest.approx(1.0)
        other = NewtonStats()
        newton_solve_scalar_fused(lambda x: (x**3 - 8, 3 * x**2), 10.0, stats=other)
        stats.merge(other)
        assert stats.total_solves == 3
        assert stats.max_iterations >= 2
        assert "solves" in stats.summary()


class TestTerminations:
    def test_resistor(self):
        r = ResistorTermination(50.0)
        assert r.current_and_dcurrent(1.0, 0.0) == pytest.approx((0.02, 0.02))
        assert not r.nonlinear

    def test_open(self):
        o = OpenTermination()
        assert o.current_and_dcurrent(5.0, 0.0) == (0.0, 0.0)

    def test_resistive_source(self):
        src = ResistiveSourceTermination(100.0, lambda t: 1.0 if t > 0 else 0.0)
        assert src.current_and_dcurrent(0.0, 1.0) == pytest.approx((-0.01, 0.01))
        assert src.current_and_dcurrent(1.0, 1.0)[0] == pytest.approx(0.0)

    def test_parallel_rc_pure_resistive_at_dc(self):
        rc = ParallelRCTermination(500.0, 1e-12, dt=1e-12, v0=1.0)
        # committed repeatedly at the same voltage the capacitor current dies out
        for _ in range(5):
            i = rc.commit(1.0, 0.0)
        assert i == pytest.approx(1.0 / 500.0)

    def test_parallel_rc_capacitive_step(self):
        dt = 1e-12
        rc = ParallelRCTermination(1e9, 1e-12, dt=dt, v0=0.0)
        i, g = rc.current_and_dcurrent(0.1, 0.0)
        assert i == pytest.approx(1e-12 * 0.1 / dt, rel=1e-6)
        assert g == pytest.approx(1e-9 + 1e-12 / dt)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ResistorTermination(0.0)
        with pytest.raises(ValueError):
            ParallelRCTermination(100.0, 1e-12, dt=0.0)

    def test_macromodel_termination_commit_tracks_port(self, receiver_model):
        term = ResampledPortModel(receiver_model, 5e-12, v0=0.0)
        assert term.nonlinear
        i = term.commit(0.5, 0.0)
        assert term.last_current == i
        assert term.time == pytest.approx(5e-12)

    def test_macromodel_termination_reset(self, receiver_model):
        term = ResampledPortModel(receiver_model, 5e-12, v0=0.0)
        term.commit(1.0, 0.0)
        term.reset(v0=0.0, i0=0.0)
        np.testing.assert_allclose(term.x_v, 0.0)


class TestHybridCellUpdate:
    def test_linear_resistor_closed_form(self):
        r = ResistorTermination(100.0)
        upd = HybridCellUpdate(r)
        # a v - b - c (i + i_prev) = 0 with i = v/100
        a, b, c = 2.0, 1.0, -0.5
        v, i = upd.solve(a, b, c, v_guess=0.0, t=0.0)
        expected_v = b / (a - c / 100.0)
        assert v == pytest.approx(expected_v)
        assert i == pytest.approx(expected_v / 100.0)

    def test_nonlinear_macromodel_converges_quickly(self, driver_model):
        bound = driver_model.bound(LogicStimulus.from_pattern("0", 2e-9))
        term = ResampledPortModel(bound, 5e-12, v0=0.0)
        stats = NewtonStats()
        upd = HybridCellUpdate(term, stats=stats)
        v, i = upd.solve(a=1.0, b=0.5, c=-0.01, v_guess=0.4, t=5e-12)
        assert stats.max_iterations <= 5
        assert np.isfinite(v) and np.isfinite(i)
        # residual satisfied
        assert 1.0 * v - 0.5 - (-0.01) * (i + 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_stats_shared_across_updates(self, driver_model, receiver_model):
        stats = NewtonStats()
        bound = driver_model.bound(LogicStimulus.from_pattern("0", 2e-9))
        upd1 = HybridCellUpdate(ResampledPortModel(bound, 5e-12), stats=stats)
        upd2 = HybridCellUpdate(ResampledPortModel(receiver_model, 5e-12), stats=stats)
        upd1.solve(1.0, 0.5, -0.01, 0.4, 5e-12)
        upd2.solve(1.0, 0.5, -0.01, 0.4, 5e-12)
        assert stats.total_solves == 2


class TestCosimContainers:
    def test_simulation_result_validation(self):
        with pytest.raises(ValueError):
            SimulationResult(times=np.zeros(5), voltages={"x": np.zeros(4)})

    def test_simulation_result_accessors(self):
        t = np.linspace(0, 1e-9, 11)
        res = SimulationResult(times=t, voltages={"near_end": t * 1e9}, engine="test")
        assert res.dt == pytest.approx(1e-10)
        assert res.duration == pytest.approx(1e-9)
        with pytest.raises(KeyError):
            res.voltage("missing")
        resampled = res.resampled_voltage("near_end", np.array([0.55e-9]))
        assert resampled[0] == pytest.approx(0.55)

    def test_link_description_presets(self):
        assert LinkDescription(load="receiver").z0 == pytest.approx(131.0)
        with pytest.raises(ValueError):
            LinkDescription(load="banana")
