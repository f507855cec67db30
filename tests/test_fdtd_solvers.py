"""Tests of the 1-D and 3-D FDTD solvers and the lumped-element coupling."""

import numpy as np
import pytest

from repro.core.ports import (
    ParallelRCTermination,
    ResistorTermination,
    ResistiveSourceTermination,
)
from repro.core.resampling import ResampledPortModel
from repro.fdtd.courant import courant_time_step
from repro.fdtd.constants import C0
from repro.fdtd.grid import YeeGrid
from repro.fdtd.lumped import FlippedTermination, LumpedElementSite
from repro.fdtd.probes import EdgeVoltageProbe, FieldProbe
from repro.fdtd.solver1d import FDTD1DLine
from repro.fdtd.solver3d import FDTD3DSolver
from repro.macromodel.driver import LogicStimulus
from repro.structures.validation_line import ValidationLineStructure, estimate_line_parameters
from repro.waveforms.analysis import crossing_times
from repro.waveforms.signals import GaussianPulse, StepWaveform


class TestFDTD1D:
    def _step_source(self):
        return StepWaveform(low=0.0, high=1.0, t_start=0.1e-9, rise_time=0.05e-9)

    def test_matched_line_levels_and_delay(self):
        z0, td = 131.0, 0.4e-9
        line = FDTD1DLine(
            z0, td,
            ResistiveSourceTermination(z0, self._step_source()),
            ResistorTermination(z0),
            n_cells=80,
        )
        res = line.run(2e-9)
        assert res.voltage("near_end")[-1] == pytest.approx(0.5, abs=0.01)
        assert res.voltage("far_end")[-1] == pytest.approx(0.5, abs=0.01)
        t_near = crossing_times(res.times, res.voltage("near_end"), 0.25)[0]
        t_far = crossing_times(res.times, res.voltage("far_end"), 0.25)[0]
        assert (t_far - t_near) == pytest.approx(td, abs=0.02 * td)

    def test_open_and_short_reflections(self):
        z0, td = 100.0, 0.2e-9
        open_line = FDTD1DLine(
            z0, td, ResistiveSourceTermination(z0, self._step_source()), ResistorTermination(1e9), n_cells=60
        )
        res_open = open_line.run(1.5e-9)
        assert np.max(res_open.voltage("far_end")) == pytest.approx(1.0, abs=0.02)
        short_line = FDTD1DLine(
            z0, td, ResistiveSourceTermination(z0, self._step_source()), ResistorTermination(1e-3), n_cells=60
        )
        res_short = short_line.run(1.5e-9)
        assert abs(res_short.voltage("far_end")[-1]) < 0.01

    def test_rc_load_settles_to_divider(self):
        z0, td = 131.0, 0.4e-9
        r_load = 500.0
        line = FDTD1DLine(
            z0, td,
            ResistiveSourceTermination(z0, self._step_source()),
            ParallelRCTermination(r_load, 1e-12, td / 100),
            n_cells=100,
        )
        res = line.run(6e-9)
        expected = r_load / (r_load + z0)
        assert res.voltage("far_end")[-1] == pytest.approx(expected, abs=0.02)

    def test_macromodel_driver_reaches_rail(self, driver_model):
        z0, td = 131.0, 0.4e-9
        dt = td / 100
        bound = driver_model.bound(LogicStimulus.from_pattern("01", 2e-9))
        line = FDTD1DLine(
            z0, td,
            ResampledPortModel(bound, dt),
            ParallelRCTermination(500.0, 1e-12, dt),
            n_cells=100,
        )
        res = line.run(5e-9)
        # after the up transition at 2 ns everything settles near the supply
        assert res.voltage("near_end")[-1] == pytest.approx(1.8, abs=0.15)
        assert res.voltage("far_end")[-1] == pytest.approx(1.8, abs=0.15)
        assert res.newton_stats.max_iterations <= 5
        assert res.newton_stats.failures == 0

    def test_rc_load_is_not_counted_as_a_newton_solve(self, driver_model):
        # Only the driver port iterates; the RC load's closed form is no solve.
        dt = 0.4e-9 / 40
        bound = driver_model.bound(LogicStimulus.from_pattern("01", 0.2e-9))
        line = FDTD1DLine(
            131.0, 0.4e-9,
            ResampledPortModel(bound, dt),
            ParallelRCTermination(500.0, 1e-12, dt),
            n_cells=40,
        )
        res = line.run(0.6e-9)
        assert res.newton_stats.total_solves == res.times.size
        assert res.newton_stats.mean_iterations > 1.0

    def test_rejects_termination_built_for_another_step(self, driver_model):
        # The line steps at delay / n_cells = 4 ps; an RC load built for
        # 8 ps would differentiate with the wrong step.
        td = 0.4e-9
        bound = driver_model.bound(LogicStimulus.from_pattern("01", 2e-9))
        with pytest.raises(ValueError, match="far end.*4e-12.*8e-12"):
            FDTD1DLine(
                131.0, td,
                ResampledPortModel(bound, td / 100),
                ParallelRCTermination(500.0, 1e-12, td / 50),
                n_cells=100,
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            FDTD1DLine(0.0, 1e-9, ResistorTermination(50.0), ResistorTermination(50.0))
        with pytest.raises(ValueError):
            FDTD1DLine(50.0, 1e-9, ResistorTermination(50.0), ResistorTermination(50.0), n_cells=2)
        line = FDTD1DLine(50.0, 1e-9, ResistorTermination(50.0), ResistorTermination(50.0))
        with pytest.raises(ValueError):
            line.run(0.0)


def _small_line_structure():
    return ValidationLineStructure(
        strip_length_cells=24, margin_x=6, margin_y=6, margin_z=6
    )


class TestFDTD3D:
    def test_solver_rejects_super_courant_dt(self):
        grid = YeeGrid(8, 8, 8, 1e-3)
        with pytest.raises(ValueError):
            FDTD3DSolver(grid, dt=1e-11)

    def test_free_space_pulse_stays_bounded(self):
        grid = YeeGrid(20, 12, 12, 1e-3)
        solver = FDTD3DSolver(grid)
        src = ResistiveSourceTermination(100.0, GaussianPulse(amplitude=1.0, t_center=30e-12, sigma=8e-12))
        solver.add_lumped_element(LumpedElementSite("src", "z", (10, 6, 6), src))
        solver.run(n_steps=400)
        assert np.isfinite(solver.total_field_energy())
        # absorbing boundaries drain the energy once the pulse has left
        assert solver.total_field_energy() < 1e-12

    def test_lumped_resistor_voltage_divider_on_line(self):
        """Launch a step down the stacked-strip line into a matched far end:
        the near-end voltage equals the source divided between Rs and Zc."""
        structure = _small_line_structure()
        step = StepWaveform(high=1.0, t_start=20e-12, rise_time=20e-12)
        solver, near, far = structure.build_solver(
            ResistiveSourceTermination(137.0, step), ResistorTermination(137.0)
        )
        solver.run(duration=0.35e-9)
        # during the flight the near end sits near 0.5 V (Zc ~ 137 ohm)
        assert near.voltages[-1] == pytest.approx(0.5, abs=0.08)
        assert np.isfinite(far.voltages).all()

    def test_effective_line_parameters_match_paper(self):
        z_c, t_d = estimate_line_parameters(ValidationLineStructure.scaled(0.25))
        # the paper quotes ~131 ohm; the discretised line lands within ~10%
        assert z_c == pytest.approx(131.0, rel=0.10)
        # delay consistent with the (scaled) physical length; on a short line
        # the half-amplitude measurement carries a few tens of picoseconds of
        # rise-time bias, hence the loose tolerance
        nominal = 40 * 0.723e-3 / C0
        assert t_d == pytest.approx(nominal, rel=0.25)

    def test_probe_matches_port_voltage(self):
        structure = _small_line_structure()
        step = StepWaveform(high=1.0, t_start=20e-12, rise_time=20e-12)
        solver, near, far = structure.build_solver(
            ResistiveSourceTermination(137.0, step), ResistorTermination(137.0)
        )
        probe = solver.add_voltage_probe(
            EdgeVoltageProbe(
                "gap", "z",
                (structure.x_near, structure.y_port, structure.k_bottom),
                n_edges=1,
            )
        )
        fprobe = solver.add_field_probe(
            FieldProbe("ez_mid", "z", (structure.nx // 2, structure.y_port, structure.k_bottom + 1))
        )
        solver.run(duration=0.25e-9)
        np.testing.assert_allclose(probe.voltages, near.voltages, atol=1e-9)
        assert np.isfinite(fprobe.values).all()

    def test_lumped_site_rejects_boundary_edge(self):
        grid = YeeGrid(8, 8, 8, 1e-3)
        solver = FDTD3DSolver(grid)
        site = LumpedElementSite("bad", "z", (0, 4, 4), ResistorTermination(50.0))
        solver.add_lumped_element(site)
        with pytest.raises(ValueError):
            solver.run(n_steps=1)

    def test_lumped_site_rejects_termination_built_for_another_step(self, receiver_model):
        # A port resampled for 1.5 ps would run with a tau 10% low in a
        # solver stepping at 1.65 ps, also behind the orientation adapter.
        port = ResampledPortModel(receiver_model, 1.5e-12)
        site = LumpedElementSite("rx", "z", (4, 4, 4), port, flip=True)
        with pytest.raises(ValueError, match="'rx'.*1.65e-12.*1.5e-12"):
            site.bind(YeeGrid(8, 8, 8, 1e-3), 1.65e-12)

    def test_flipped_termination_sign_convention(self):
        inner = ResistiveSourceTermination(100.0, lambda t: 1.0)
        flipped = FlippedTermination(inner)
        # flipped current at +v equals minus the inner current at -v
        i, g = flipped.current_and_dcurrent(0.5, 0.0)
        i_inner, g_inner = inner.current_and_dcurrent(-0.5, 0.0)
        assert i == pytest.approx(-i_inner)
        assert g == pytest.approx(g_inner)

    def test_flipped_termination_starts_from_the_inner_state(self, receiver_model):
        port = ResampledPortModel(receiver_model, 1.5e-12, v0=1.0, i0=0.1)
        flipped = FlippedTermination(port)
        assert flipped.last_voltage == -1.0
        assert flipped.last_current == -0.1
        site = LumpedElementSite("rx", "z", (4, 4, 4), port, flip=True)
        site.bind(YeeGrid(8, 8, 8, 1e-3), 1.5e-12)
        assert site._v_prev == -1.0
        # a zero inner state stays +0.0 (the flipped ports' bits)
        zero = FlippedTermination(ResistorTermination(50.0))
        assert np.copysign(1.0, zero.last_voltage) == 1.0
        assert np.copysign(1.0, zero.last_current) == 1.0

    def test_flipped_resistor_makes_no_extra_conductance_call(self):
        # Figure 7's receiver-side strip ends: flipped 50 ohm resistors.  The
        # closed form reads i(0) and g from one evaluation per step, and the
        # commit makes the other: flipping adds no per-step conductance call.
        class CountingResistor(ResistorTermination):
            calls = 0

            def current_and_dcurrent(self, v, t):
                self.calls += 1
                return super().current_and_dcurrent(v, t)

        bare, inner = CountingResistor(50.0), CountingResistor(50.0)
        solver = FDTD3DSolver(YeeGrid(8, 8, 8, 1e-3))
        solver.add_lumped_element(LumpedElementSite("bare", "z", (2, 4, 4), bare))
        solver.add_lumped_element(LumpedElementSite("flipped", "z", (5, 4, 4), inner, flip=True))
        n_steps = 25
        solver.run(n_steps=n_steps)
        assert bare.calls == inner.calls == 2 * n_steps
        assert solver.newton_stats.total_solves == 0

    def test_run_requires_exactly_one_duration_spec(self):
        grid = YeeGrid(6, 6, 6, 1e-3)
        solver = FDTD3DSolver(grid)
        with pytest.raises(ValueError):
            solver.run()
        with pytest.raises(ValueError):
            solver.run(duration=1e-12, n_steps=5)

    def test_energy_decays_with_resistive_loads(self):
        """Passivity: with resistive terminations the late-time energy decays."""
        structure = _small_line_structure()
        pulse = GaussianPulse(amplitude=1.0, t_center=40e-12, sigma=10e-12)
        solver, near, far = structure.build_solver(
            ResistiveSourceTermination(137.0, pulse), ResistorTermination(137.0)
        )
        solver.run(duration=0.2e-9)
        early = solver.total_field_energy()
        solver.run(n_steps=600)
        late = solver.total_field_energy()
        assert late < early

    def test_macromodel_port_in_3d_is_stable(self, driver_model):
        structure = _small_line_structure()
        dt = courant_time_step(structure.mesh_size)
        bound = driver_model.bound(LogicStimulus.from_pattern("01", 0.5e-9))
        solver, near, far = structure.build_solver(
            ResampledPortModel(bound, dt),
            ParallelRCTermination(500.0, 1e-12, dt),
            dt=dt,
        )
        solver.run(duration=1.5e-9)
        assert np.all(np.abs(near.voltages) < 3.0)
        assert near.voltages[-1] == pytest.approx(1.8, abs=0.2)
        assert solver.newton_stats.max_iterations <= 5
