"""SPICE-class circuit simulation substrate.

The paper validates the hybrid FDTD/macromodel method against circuit-level
references: "SPICE with ideal TL and transistor-level models of the
devices" and "SPICE with ideal TL and RBF models of the devices".  Since no
commercial SPICE is available to this reproduction, this package implements
the required subset from scratch:

* :mod:`repro.circuits.netlist` / :mod:`repro.circuits.mna` — node/branch
  bookkeeping and Modified Nodal Analysis assembly.
* :mod:`repro.circuits.elements` — linear elements (R, C, L, independent
  sources) with trapezoidal companion models.
* :mod:`repro.circuits.diode`, :mod:`repro.circuits.mosfet` — the nonlinear
  devices needed for the transistor-level CMOS driver and receiver.
* :mod:`repro.circuits.tline` — the ideal transmission line (method of
  characteristics / Branin model) used by both SPICE engines.
* :mod:`repro.circuits.rbf_element` — the RBF macromodel as a circuit
  element (the "SPICE (RBF model)" engine).
* :mod:`repro.circuits.transient` — Newton-Raphson transient solver; its
  Newton settings are module constants, and :class:`TransientOptions`
  holds what a caller sets (fast/reference path, backend, retries and the
  non-convergence policy).
* :mod:`repro.circuits.devices` — transistor-level builders of the
  reference 1.8 V CMOS driver and receiver.
* :mod:`repro.circuits.testbenches` — the canned testbenches of the paper's
  Figures 4 and 5 plus the identification experiments.
"""

from repro.circuits.netlist import Circuit, GROUND
from repro.circuits.elements import (
    Capacitor,
    CapacitorBank,
    CurrentSource,
    ElementBank,
    Inductor,
    InductorBank,
    Resistor,
    ResistorBank,
    VoltageSource,
)
from repro.circuits.diode import Diode
from repro.circuits.mosfet import Mosfet
from repro.circuits.tline import IdealTransmissionLine
from repro.circuits.rbf_element import MacromodelElement
from repro.circuits.transient import CircuitResult, TransientOptions, TransientSolver
from repro.circuits.devices import (
    CmosDriverCircuit,
    CmosReceiverCircuit,
    add_cmos_driver,
    add_cmos_receiver,
)

__all__ = [
    "Circuit",
    "GROUND",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "ElementBank",
    "ResistorBank",
    "CapacitorBank",
    "InductorBank",
    "Diode",
    "Mosfet",
    "IdealTransmissionLine",
    "MacromodelElement",
    "TransientSolver",
    "TransientOptions",
    "CircuitResult",
    "CmosDriverCircuit",
    "CmosReceiverCircuit",
    "add_cmos_driver",
    "add_cmos_receiver",
]
