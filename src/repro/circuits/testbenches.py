"""Canned circuit testbenches used by the experiments.

Two families live here:

* **Link testbenches** — the validation structure of the paper's Figure 4
  and 5 at circuit level: a switching driver, an ideal transmission line
  (131 ohm, 0.4 ns) and a far-end load (1 pF // 500 ohm or a receiver).
  Both the transistor-level and the RBF-macromodel variants are provided;
  they are the "SPICE (reference)" and "SPICE (RBF model)" engines.  The
  macromodel circuit (:func:`rbf_link_circuit`) is also what every
  scenario of an ``rbf`` sweep runs.
* **Identification testbenches** — the experiments that generate training
  records for macromodel identification: fixed-logic-state port sweeps and
  switching records under two different loads.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.circuits.devices import add_cmos_driver, add_cmos_receiver
from repro.circuits.elements import Capacitor, Resistor, VoltageSource
from repro.circuits.ladder import add_link_interconnect
from repro.circuits.netlist import GROUND, Circuit
from repro.circuits.rbf_element import MacromodelElement
from repro.circuits.transient import TransientOptions, TransientSolver
from repro.core.cosim import LinkDescription, SimulationResult
from repro.macromodel.driver import DriverMacromodel, LogicStimulus
from repro.macromodel.library import ReferenceDeviceParameters
from repro.macromodel.receiver import ReceiverMacromodel
from repro.waveforms.signals import BitPattern, PiecewiseLinearWaveform

__all__ = [
    "run_link_transistor",
    "run_link_rbf",
    "rbf_link_circuit",
    "link_start_level",
    "record_fixed_state",
    "record_switching",
    "record_receiver_port",
    "multilevel_excitation",
]

#: Logic-input edge time used for the transistor-level driver stimulus.
_INPUT_EDGE_TIME = 100e-12


def _add_rc_load(circuit: Circuit, link: LinkDescription, v0: float = 0.0) -> None:
    """The link's RC load at ``far``; the capacitor starts charged to ``v0``."""
    circuit.add(Resistor("rload", "far", GROUND, link.load_resistance))
    circuit.add(Capacitor("cload", "far", GROUND, link.load_capacitance, v0=v0))


def link_start_level(link: LinkDescription, vdd: float) -> float:
    """The level the macromodel link starts at: the driver's initial level.

    A pattern that starts with '1' begins at Vdd, not at a 0 V guess the
    Newton solve of the first step cannot reach.
    """
    return vdd if link.bit_pattern[0] == "1" else 0.0


def rbf_link_circuit(
    link: LinkDescription,
    driver_model: DriverMacromodel,
    receiver_model: ReceiverMacromodel | None,
    dt: float,
    vdd: float,
) -> Circuit:
    """The macromodel link: driver port, interconnect and the load ``link.load`` names.

    The interconnect is the ideal line, or an LC ladder when
    ``link.segments > 0``.  The whole link starts at
    :func:`link_start_level`: the line, the load capacitor and the ports'
    regressor histories.  Each port is built for the solver step ``dt``.
    """
    v0 = link_start_level(link, vdd)
    stimulus = LogicStimulus.from_pattern(link.bit_pattern, link.bit_time)
    circuit = Circuit("link-rbf")
    circuit.add(MacromodelElement("drv", "near", GROUND, driver_model.bound(stimulus), dt, v0=v0))
    add_link_interconnect(
        circuit, "near", "far", link.z0, link.delay, link.segments, v_initial=v0
    )
    if link.load == "rc":
        _add_rc_load(circuit, link, v0)
    elif receiver_model is None:
        raise ValueError("a receiver macromodel is required for load='receiver'")
    else:
        circuit.add(MacromodelElement("rx", "far", GROUND, receiver_model, dt, v0=v0))
    return circuit


def _link_result(
    times: np.ndarray,
    near: np.ndarray,
    far: np.ndarray,
    engine: str,
    iterations: np.ndarray,
    wall_time: float,
    solver_stats: dict | None = None,
) -> SimulationResult:
    metadata = {
        "mean_newton_iterations": float(np.mean(iterations[1:])) if len(iterations) > 1 else 0.0,
        "max_newton_iterations": int(np.max(iterations)),
        "wall_time": wall_time,
        "dt": float(times[1] - times[0]) if len(times) > 1 else 0.0,
    }
    if solver_stats:
        # Assembler/backend counters; the job API lifts these into
        # Result.perf_stats so `python -m repro run` can report them.
        metadata["solver_stats"] = dict(solver_stats)
    return SimulationResult(
        times=times,
        voltages={"near_end": near, "far_end": far},
        engine=engine,
        metadata=metadata,
    )


def run_link_transistor(
    link: LinkDescription,
    params: ReferenceDeviceParameters | None = None,
    dt: float = 5e-12,
    settle: float = 2e-9,
    options: TransientOptions | None = None,
) -> SimulationResult:
    """The paper's "SPICE (reference)" engine: transistor-level devices, ideal TL.

    The transistor-level circuit starts from an all-zero state, so the bit
    pattern is delayed by a ``settle`` interval during which the driver's
    internal nodes reach their quiescent values; the settling interval is
    removed from the returned waveforms, whose time axis therefore lines up
    with the macromodel-based engines.
    """
    params = params or ReferenceDeviceParameters()
    stimulus = BitPattern(
        pattern=link.bit_pattern,
        bit_time=link.bit_time,
        low=0.0,
        high=params.vdd,
        edge_time=_INPUT_EDGE_TIME,
        t_start=settle,
    )
    circuit = Circuit("link-transistor")
    add_cmos_driver(circuit, "drv", "near", stimulus, params)
    add_link_interconnect(circuit, "near", "far", link.z0, link.delay, link.segments)
    if link.load == "rc":
        _add_rc_load(circuit, link)
    else:
        add_cmos_receiver(circuit, "rx", "far", params)

    solver = TransientSolver(circuit, dt, options=options)
    result = solver.run(link.duration + settle, record_nodes=["near", "far"])
    start = int(round(settle / dt))
    return _link_result(
        result.times[start:] - result.times[start],
        result.voltage("near")[start:],
        result.voltage("far")[start:],
        "spice-transistor",
        result.newton_iterations,
        result.wall_time,
        solver_stats=solver.perf_stats,
    )


def run_link_rbf(
    link: LinkDescription,
    driver_model: DriverMacromodel,
    receiver_model: ReceiverMacromodel | None = None,
    dt: float = 5e-12,
    params: ReferenceDeviceParameters | None = None,
    options: TransientOptions | None = None,
) -> SimulationResult:
    """The paper's "SPICE (RBF model)" engine: macromodels, ideal TL.

    With ``link.segments > 0`` the ideal line becomes a lumped LC ladder
    of the same impedance/delay; ``options`` selects solver settings such
    as the sparse linear-solver backend those large links call for.
    """
    params = params or ReferenceDeviceParameters()
    circuit = rbf_link_circuit(link, driver_model, receiver_model, dt, params.vdd)
    v0 = link_start_level(link, params.vdd)
    solver = TransientSolver(circuit, dt, options=options)
    result = solver.run(
        link.duration, record_nodes=["near", "far"],
        initial_voltages={"near": v0, "far": v0},
    )
    return _link_result(
        result.times,
        result.voltage("near"),
        result.voltage("far"),
        "spice-rbf",
        result.newton_iterations,
        result.wall_time,
        solver_stats=solver.perf_stats,
    )


def multilevel_excitation(
    v_min: float, v_max: float, duration: float, n_levels: int = 40, seed: int = 0
) -> PiecewiseLinearWaveform:
    """A pseudo-random multilevel voltage waveform for port identification.

    The waveform steps between ``n_levels`` pseudo-random levels spanning
    ``[v_min, v_max]`` with smooth 50 ps ramps, anchored at the two extremes
    and at the rails so the static characteristic is well covered.
    """
    rng = np.random.default_rng(seed)
    levels = rng.uniform(v_min, v_max, size=n_levels)
    levels[0] = 0.0
    levels[1] = v_max
    levels[2] = v_min
    hold = duration / n_levels
    ramp = min(50e-12, 0.4 * hold)
    times = [0.0]
    values = [levels[0]]
    for k, level in enumerate(levels):
        t_start = k * hold
        if k > 0:
            times.append(t_start + ramp)
            values.append(level)
        times.append((k + 1) * hold)
        values.append(level)
    return PiecewiseLinearWaveform(times, values)


def record_fixed_state(
    params: ReferenceDeviceParameters,
    state: str,
    excitation: Callable[[float], float],
    duration: float,
    dt: float | None = None,
    settle: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Port record of the transistor-level driver held in a fixed logic state.

    The driver input is tied to the rail corresponding to ``state`` while a
    forcing voltage source sweeps the output port with ``excitation``.
    Returns ``(v, i)`` sampled at the model sampling time (``params.sampling_time``
    unless ``dt`` is given), with the current measured *into* the device and
    the initial ``settle`` interval discarded.
    """
    if state not in ("high", "low"):
        raise ValueError("state must be 'high' or 'low'")
    dt = dt or params.sampling_time
    v_in = params.vdd if state == "high" else 0.0

    circuit = Circuit(f"ident-{state}")
    add_cmos_driver(circuit, "drv", "pad", v_in, params)
    circuit.add(VoltageSource("vforce", "pad", GROUND, excitation))

    solver = TransientSolver(circuit, dt)
    result = solver.run(duration + settle, record_nodes=["pad"])
    start = int(round(settle / dt))
    v = result.voltage("pad")[start:]
    # Current into the device = minus the current delivered through the
    # forcing source branch (which is defined from its + node into the source).
    i = -result.branch_current("vforce")[start:]
    return v, i


def record_switching(
    params: ReferenceDeviceParameters,
    load_resistance: float,
    load_to_vdd: bool,
    direction: str,
    duration: float = 4e-9,
    dt: float | None = None,
    settle: float = 4e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Switching record of the transistor-level driver under a resistive load.

    The driver input performs a single ``direction`` transition after a
    ``settle`` interval in the opposite state; the port is loaded by
    ``load_resistance`` returned either to ground or to Vdd (two different
    loads are needed by the weight-extraction procedure).  Returns ``(v, i)``
    sampled at the model sampling time, starting exactly at the input
    transition, with the current measured into the device.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    dt = dt or params.sampling_time
    v_from = 0.0 if direction == "up" else params.vdd
    v_to = params.vdd if direction == "up" else 0.0
    stimulus = PiecewiseLinearWaveform(
        [0.0, settle, settle + _INPUT_EDGE_TIME, settle + duration],
        [v_from, v_from, v_to, v_to],
    )

    circuit = Circuit(f"ident-switch-{direction}")
    add_cmos_driver(circuit, "drv", "pad", stimulus, params)
    ref_node = "loadref"
    if load_to_vdd:
        circuit.add(VoltageSource("vloadref", ref_node, GROUND, params.vdd))
    else:
        ref_node = GROUND
    circuit.add(Resistor("rload", "pad", ref_node, load_resistance))

    solver = TransientSolver(circuit, dt)
    result = solver.run(settle + duration, record_nodes=["pad", ref_node] if ref_node != GROUND else ["pad"])
    start = int(round(settle / dt))
    v = result.voltage("pad")[start:]
    v_ref = result.voltage(ref_node)[start:] if ref_node != GROUND else np.zeros_like(v)
    # Current into the device = minus the current into the load resistor.
    i = -(v - v_ref) / load_resistance
    return v, i


def record_receiver_port(
    params: ReferenceDeviceParameters,
    excitation: Callable[[float], float],
    duration: float,
    dt: float | None = None,
    settle: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Port record of the transistor-level receiver under a forcing voltage."""
    dt = dt or params.sampling_time
    circuit = Circuit("ident-receiver")
    add_cmos_receiver(circuit, "rx", "pad", params)
    circuit.add(VoltageSource("vforce", "pad", GROUND, excitation))
    solver = TransientSolver(circuit, dt)
    result = solver.run(duration + settle, record_nodes=["pad"])
    start = int(round(settle / dt))
    v = result.voltage("pad")[start:]
    i = -result.branch_current("vforce")[start:]
    return v, i
