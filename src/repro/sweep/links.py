"""Canned link testbenches for scenario sweeps.

A sweep runs one link, a :class:`~repro.core.cosim.LinkDescription`, over
the sweep dimensions of :class:`~repro.sweep.scenario.Scenario`.  Each
scenario runs that link with its own pattern and corner applied
(:func:`scenario_link`):

* ``bit_pattern`` / ``drive_strength`` — the stimulus (RHS-only);
* ``corner`` — overrides of the link's numeric values (``z0``, ``delay``,
  ``load_resistance``, ``load_capacitance``, ``source_resistance``),
  static-affecting, so they key the shared-factorization groups.

Two families are provided: a purely linear link (Thevenin driver, RC
load) whose scenarios step together as lane sets with one shared-LU block
solve per corner group and step, and the macromodel link of
:func:`repro.circuits.testbenches.rbf_link_circuit`, ending in the load
``link.load`` names, whose scenarios each run their own Newton solve on
their corner group's shared static stamps.
"""

from __future__ import annotations

import dataclasses

from repro.circuits.elements import Capacitor, Resistor, VoltageSource
from repro.circuits.ladder import add_link_interconnect
from repro.circuits.netlist import GROUND, Circuit
from repro.circuits.testbenches import link_start_level, rbf_link_circuit
from repro.circuits.transient import TransientOptions
from repro.core.cosim import LinkDescription
from repro.sweep.engine import CircuitSweep
from repro.sweep.scenario import Scenario
from repro.waveforms.signals import BitPattern

__all__ = ["scenario_link", "linear_link_circuit", "linear_link_sweep", "rbf_link_sweep"]


def scenario_link(link: LinkDescription, scenario: Scenario) -> LinkDescription:
    """The link one scenario runs: ``link`` with the scenario's pattern and corner."""
    return dataclasses.replace(
        link, bit_pattern=scenario.bit_pattern or link.bit_pattern, **scenario.corner
    )


def linear_link_circuit(link: LinkDescription, high: float) -> Circuit:
    """The linear link: an ideal ``0``/``high`` bit source behind
    ``link.source_resistance``, the interconnect and the RC load."""
    stimulus = BitPattern(
        pattern=link.bit_pattern,
        bit_time=link.bit_time,
        low=0.0,
        high=high,
        edge_time=link.edge_time,
    )
    circuit = Circuit("linear-link")
    circuit.add(VoltageSource("vin", "src", GROUND, stimulus))
    circuit.add(Resistor("rs", "src", "near", link.source_resistance))
    add_link_interconnect(circuit, "near", "far", link.z0, link.delay, link.segments)
    circuit.add(Resistor("rload", "far", GROUND, link.load_resistance))
    circuit.add(Capacitor("cload", "far", GROUND, link.load_capacitance))
    return circuit


def linear_link_sweep(
    scenarios,
    link: LinkDescription = LinkDescription(),
    dt: float = 5e-12,
    vdd: float = 1.8,
    options: TransientOptions | None = None,
) -> CircuitSweep:
    """A sweep over the linear link (shared-LU block-solve path).

    Runs for ``link.duration``; a scenario's source swings to ``vdd``
    times its ``drive_strength``.
    """
    return CircuitSweep(
        lambda scenario: linear_link_circuit(
            scenario_link(link, scenario), vdd * scenario.drive_strength
        ),
        scenarios,
        dt=dt,
        duration=link.duration,
        record_nodes=["near", "far"],
        record_branches=[],
        options=options,
    )


def rbf_link_sweep(
    scenarios,
    link: LinkDescription,
    models,
    dt: float = 5e-12,
    vdd: float = 1.8,
    options: TransientOptions | None = None,
) -> CircuitSweep:
    """A sweep over the macromodel link (one Newton run per scenario).

    ``models`` is a :class:`~repro.experiments.devices.ReferenceMacromodels`
    pair; the link runs for ``link.duration`` and starts at
    :func:`~repro.circuits.testbenches.link_start_level` of ``vdd``.
    """

    def build(scenario: Scenario) -> Circuit:
        if scenario.drive_strength != 1.0:
            raise ValueError(
                f"scenario {scenario.name!r}: drive_strength has no meaning for the "
                "RBF link (the identified driver macromodel fixes the drive)"
            )
        return rbf_link_circuit(
            scenario_link(link, scenario), models.driver, models.receiver, dt, vdd
        )

    def initial_voltages(scenario: Scenario) -> dict:
        v0 = link_start_level(scenario_link(link, scenario), vdd)
        return {"near": v0, "far": v0}

    return CircuitSweep(
        build,
        scenarios,
        dt=dt,
        duration=link.duration,
        record_nodes=["near", "far"],
        record_branches=[],
        options=options,
        initial_voltages=initial_voltages,
    )
