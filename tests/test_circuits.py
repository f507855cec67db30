"""Tests for the SPICE-class circuit substrate."""

import dataclasses

import numpy as np
import pytest

from repro.circuits import (
    Capacitor,
    Circuit,
    CurrentSource,
    Diode,
    GROUND,
    IdealTransmissionLine,
    Inductor,
    MacromodelElement,
    Mosfet,
    Resistor,
    TransientOptions,
    TransientSolver,
    VoltageSource,
    add_cmos_driver,
    add_cmos_receiver,
)
from repro.circuits.mosfet import level1_drain_current
from repro.waveforms.signals import BitPattern, StepWaveform


def _run(circuit, dt, duration, **kwargs):
    return TransientSolver(circuit, dt).run(duration, **kwargs)


class TestLinearElements:
    def test_resistive_divider(self):
        ckt = Circuit()
        ckt.add(VoltageSource("v1", "in", GROUND, 2.0))
        ckt.add(Resistor("r1", "in", "out", 1000.0))
        ckt.add(Resistor("r2", "out", GROUND, 1000.0))
        res = _run(ckt, 1e-9, 10e-9)
        assert res.voltage("out")[-1] == pytest.approx(1.0, rel=1e-6)

    def test_rc_charging_time_constant(self):
        r, c = 1e3, 1e-12
        ckt = Circuit()
        ckt.add(VoltageSource("v1", "in", GROUND, StepWaveform(high=1.0, t_start=0.0)))
        ckt.add(Resistor("r1", "in", "out", r))
        ckt.add(Capacitor("c1", "out", GROUND, c))
        res = _run(ckt, 1e-12, 5e-9)
        tau = r * c
        idx = np.searchsorted(res.times, tau)
        assert res.voltage("out")[idx] == pytest.approx(1 - np.exp(-1), abs=0.02)
        assert res.voltage("out")[-1] == pytest.approx(1.0, abs=0.01)

    def test_rl_current_rise(self):
        r, ind = 50.0, 1e-9
        ckt = Circuit()
        ckt.add(VoltageSource("v1", "in", GROUND, 1.0))
        ckt.add(Resistor("r1", "in", "mid", r))
        ckt.add(Inductor("l1", "mid", GROUND, ind))
        res = _run(ckt, 1e-12, 1e-9)
        i_final = res.branch_current("l1")[-1]
        assert i_final == pytest.approx(1.0 / r, rel=0.02)

    def test_current_source_into_resistor(self):
        ckt = Circuit()
        ckt.add(CurrentSource("i1", GROUND, "out", 1e-3))
        ckt.add(Resistor("r1", "out", GROUND, 2000.0))
        res = _run(ckt, 1e-9, 5e-9)
        assert res.voltage("out")[-1] == pytest.approx(2.0, rel=1e-6)

    def test_lc_resonance_oscillates(self):
        l, c = 1e-9, 1e-12  # f0 ~ 5 GHz
        ckt = Circuit()
        ckt.add(Capacitor("c1", "n", GROUND, c, v0=1.0))
        ckt.add(Inductor("l1", "n", GROUND, l))
        solver = TransientSolver(ckt, 1e-12)
        res = solver.run(2e-9, initial_voltages={"n": 1.0})
        v = res.voltage("n")
        # oscillation crosses zero several times and stays bounded
        assert np.max(np.abs(v)) < 1.5
        assert np.sum(np.diff(np.sign(v)) != 0) >= 15

    def test_duplicate_element_names_rejected(self):
        ckt = Circuit()
        ckt.add(Resistor("r1", "a", GROUND, 1.0))
        with pytest.raises(ValueError):
            ckt.add(Resistor("r1", "b", GROUND, 1.0))

    def test_element_lookup(self):
        ckt = Circuit()
        r = Resistor("r1", "a", GROUND, 1.0)
        ckt.add(r)
        assert ckt.element("r1") is r
        with pytest.raises(KeyError):
            ckt.element("missing")


class TestNonlinearDevices:
    def test_level1_regions(self):
        # cutoff
        assert level1_drain_current(0.2, 1.0, 0.05, 0.4, 0.0)[0] == 0.0
        # triode vs saturation continuity at vds = vov
        vov = 1.0
        i_triode, _, _ = level1_drain_current(1.4, vov - 1e-9, 0.05, 0.4, 0.0)
        i_sat, _, _ = level1_drain_current(1.4, vov + 1e-9, 0.05, 0.4, 0.0)
        assert i_triode == pytest.approx(i_sat, rel=1e-6)

    def test_mosfet_current_derivatives_fd(self):
        m = Mosfet("m1", "d", "g", "s", polarity="n", k=0.06, vt=0.4, lam=0.05)
        vd, vg, vs = 0.7, 1.5, 0.0
        i0, d_vd, d_vg, d_vs = m.current_and_derivatives(vd, vg, vs)
        h = 1e-7
        assert d_vd == pytest.approx((m.current_and_derivatives(vd + h, vg, vs)[0] - i0) / h, rel=1e-3)
        assert d_vg == pytest.approx((m.current_and_derivatives(vd, vg + h, vs)[0] - i0) / h, rel=1e-3)
        assert d_vs == pytest.approx((m.current_and_derivatives(vd, vg, vs + h)[0] - i0) / h, rel=1e-3)

    def test_pmos_symmetry(self):
        m = Mosfet("mp", "d", "g", "s", polarity="p", k=0.05, vt=0.45)
        # source at 1.8, gate at 0 -> device on, current flows source->drain, so I_DS < 0
        i_ds, *_ = m.current_and_derivatives(0.9, 0.0, 1.8)
        assert i_ds < 0

    def test_nmos_inverter_dc_levels(self):
        ckt = Circuit()
        ckt.add(VoltageSource("vdd", "vdd", GROUND, 1.8))
        ckt.add(VoltageSource("vin", "in", GROUND, 1.8))
        ckt.add(Resistor("rl", "vdd", "out", 10e3))
        ckt.add(Mosfet("mn", "out", "in", GROUND, polarity="n", k=0.06, vt=0.4))
        res = _run(ckt, 1e-11, 2e-9)
        assert res.voltage("out")[-1] < 0.1  # strong pull-down

    def test_diode_forward_and_reverse(self):
        ckt = Circuit()
        ckt.add(VoltageSource("v1", "a", GROUND, 0.7))
        ckt.add(Resistor("r1", "a", "k", 100.0))
        ckt.add(Diode("d1", "k", GROUND))
        res = _run(ckt, 1e-11, 2e-9)
        vk = res.voltage("k")[-1]
        # forward drop of the n = 1.3, Is = 1e-14 A clamp diode at ~ uA level
        assert 0.4 < vk < 0.75
        assert vk < 0.7  # some current must actually flow through the resistor
        # reverse bias: no current
        ckt2 = Circuit()
        ckt2.add(VoltageSource("v1", "a", GROUND, -1.0))
        ckt2.add(Resistor("r1", "a", "k", 100.0))
        ckt2.add(Diode("d1", "k", GROUND))
        res2 = _run(ckt2, 1e-11, 2e-9)
        assert res2.voltage("k")[-1] == pytest.approx(-1.0, abs=1e-3)

    def test_diode_current_continuity_at_knee(self):
        d = Diode("d", "a", "k", knee_voltage=0.9)
        i1, _ = d.current_and_conductance(0.9 - 1e-9)
        i2, _ = d.current_and_conductance(0.9 + 1e-9)
        assert i1 == pytest.approx(i2, rel=1e-6)


class TestTransmissionLine:
    def test_matched_line_delay(self):
        z0, td = 131.0, 0.4e-9
        ckt = Circuit()
        ckt.add(VoltageSource("vs", "src", GROUND, StepWaveform(high=1.0, t_start=0.1e-9, rise_time=20e-12)))
        ckt.add(Resistor("rs", "src", "n1", z0))
        ckt.add(IdealTransmissionLine("tl", "n1", GROUND, "n2", GROUND, z0, td))
        ckt.add(Resistor("rl", "n2", GROUND, z0))
        res = _run(ckt, 5e-12, 2e-9)
        v1, v2 = res.voltage("n1"), res.voltage("n2")
        assert v1[-1] == pytest.approx(0.5, abs=0.01)
        assert v2[-1] == pytest.approx(0.5, abs=0.01)
        t_half_1 = res.times[np.argmax(v1 > 0.25)]
        t_half_2 = res.times[np.argmax(v2 > 0.25)]
        assert (t_half_2 - t_half_1) == pytest.approx(td, abs=2e-11)

    def test_open_line_doubles(self):
        z0, td = 50.0, 0.2e-9
        ckt = Circuit()
        ckt.add(VoltageSource("vs", "src", GROUND, StepWaveform(high=1.0, t_start=0.05e-9, rise_time=10e-12)))
        ckt.add(Resistor("rs", "src", "n1", z0))
        ckt.add(IdealTransmissionLine("tl", "n1", GROUND, "n2", GROUND, z0, td))
        ckt.add(Resistor("rl", "n2", GROUND, 1e9))
        res = _run(ckt, 2e-12, 1.5e-9)
        assert np.max(res.voltage("n2")) == pytest.approx(1.0, abs=0.02)


class TestDevicesAndMacromodelElement:
    def test_driver_follows_input_pattern(self, params):
        ckt = Circuit()
        pattern = BitPattern("010", 2e-9, high=params.vdd, edge_time=0.1e-9, t_start=1e-9)
        add_cmos_driver(ckt, "drv", "out", pattern, params)
        ckt.add(Resistor("rl", "out", GROUND, 1e3))
        res = _run(ckt, 10e-12, 6e-9, record_nodes=["out"])
        v = res.voltage("out")
        t = res.times
        assert v[np.searchsorted(t, 2.5e-9)] < 0.2       # still LOW
        assert v[np.searchsorted(t, 4.5e-9)] > params.vdd - 0.3  # HIGH bit
        assert v[np.searchsorted(t, 6e-9) - 1] < 0.3      # back LOW

    def test_receiver_is_high_impedance_in_rails(self, params):
        ckt = Circuit()
        add_cmos_receiver(ckt, "rx", "pad", params)
        # ramped source (a hard step straight into the input capacitance would
        # excite the well-known trapezoidal-rule current oscillation)
        ckt.add(VoltageSource("vf", "pad", GROUND, StepWaveform(high=0.9, t_start=0.0, rise_time=0.5e-9)))
        res = _run(ckt, 10e-12, 3e-9)
        i = -res.branch_current("vf")[-1]
        assert abs(i) < 1e-5

    def test_receiver_clamps_overshoot(self, params):
        ckt = Circuit()
        add_cmos_receiver(ckt, "rx", "pad", params)
        ckt.add(
            VoltageSource(
                "vf", "pad", GROUND,
                StepWaveform(high=params.vdd + 0.8, t_start=0.0, rise_time=0.5e-9),
            )
        )
        res = _run(ckt, 10e-12, 3e-9)
        i = -res.branch_current("vf")[-1]
        # the upper ESD diode conducts roughly 0.2 mA at 0.8 V of overshoot
        assert i > 5e-5

    def test_macromodel_element_matches_termination_behaviour(self, driver_model, params):
        """The RBF circuit element driving a resistor settles to the same
        operating point as the analytic static curve predicts."""
        from repro.macromodel.driver import LogicStimulus
        from repro.macromodel.library import driver_pulldown_current
        from scipy.optimize import brentq

        dt = 5e-12
        bound = driver_model.bound(LogicStimulus.from_pattern("0", 2e-9))
        ckt = Circuit()
        ckt.add(MacromodelElement("drv", "out", GROUND, bound, dt))
        ckt.add(VoltageSource("vs", "src", GROUND, 1.8))
        ckt.add(Resistor("r", "src", "out", 200.0))
        res = _run(ckt, dt, 3e-9, record_nodes=["out"])
        v_sim = res.voltage("out")[-1]

        def balance(v):
            return float(driver_pulldown_current(v, params)) - (1.8 - v) / 200.0

        v_expected = brentq(balance, 0.0, 1.8)
        assert v_sim == pytest.approx(v_expected, abs=0.05)

    def test_transient_options_validation(self):
        # The options are what a job's engine block sets, plus the
        # benchmark's backend pin.
        assert {f.name for f in dataclasses.fields(TransientOptions)} == {
            "fast", "backend", "on_nonconvergence", "max_retries",
        }
        with pytest.raises(ValueError):
            TransientOptions(on_nonconvergence="magic")

    def test_solver_rejects_macromodel_built_for_another_step(self, driver_model):
        from repro.macromodel.driver import LogicStimulus

        bound = driver_model.bound(LogicStimulus.from_pattern("0", 2e-9))
        ckt = Circuit()
        ckt.add(MacromodelElement("drv", "out", GROUND, bound, 5e-12))
        ckt.add(Resistor("r", "out", GROUND, 200.0))
        with pytest.raises(ValueError, match="4e-12.*5e-12"):
            TransientSolver(ckt, 4e-12)

    def test_solver_rejects_bad_inputs(self):
        ckt = Circuit()
        ckt.add(Resistor("r", "a", GROUND, 1.0))
        with pytest.raises(ValueError):
            TransientSolver(ckt, 0.0)
        solver = TransientSolver(ckt, 1e-12)
        with pytest.raises(ValueError):
            solver.run(0.0)
