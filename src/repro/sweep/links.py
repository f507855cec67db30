"""Canned link testbenches for scenario sweeps.

These builders parametrise the paper's validation link — a driver, an
ideal transmission line (131 ohm, 0.4 ns) and a far-end load — over the
sweep dimensions of :class:`~repro.sweep.scenario.Scenario`:

* ``bit_pattern`` / ``drive_strength`` — the stimulus (RHS-only);
* ``corner`` — ``source_resistance``, ``load_resistance``,
  ``load_capacitance``, ``z0``, ``delay`` overrides (static-affecting,
  so they key the shared-factorization groups automatically);
* ``device`` — which macromodel variant drives/terminates the link (RBF
  sweeps only).

Two families are provided: a purely linear link (Thevenin driver, RC
load) whose sweeps exercise the shared-LU block-solve path, and an RBF
link (driver/receiver macromodels) whose sweeps exercise the batched
Gaussian evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Tuple

from repro.circuits.elements import Capacitor, Resistor, VoltageSource
from repro.circuits.ladder import add_link_interconnect
from repro.circuits.netlist import GROUND, Circuit
from repro.circuits.rbf_element import MacromodelElement
from repro.circuits.transient import TransientOptions
from repro.macromodel.driver import DriverMacromodel, LogicStimulus
from repro.macromodel.receiver import ReceiverMacromodel
from repro.sweep.engine import CircuitSweep
from repro.sweep.scenario import Scenario
from repro.waveforms.signals import BitPattern

__all__ = ["LinearLinkSpec", "RBFLinkSpec", "linear_link_sweep", "rbf_link_sweep"]


def _add_sweep_interconnect(
    circuit: Circuit, z0: float, delay: float, segments: int, v_initial: float = 0.0
) -> None:
    """Ideal MoC line, or an LC ladder when the link spec asks for one."""
    add_link_interconnect(circuit, "near", "far", z0, delay, segments,
                          v_initial=v_initial)


@dataclasses.dataclass(frozen=True)
class LinearLinkSpec:
    """Defaults of the linear link testbench (per-scenario corners override).

    ``segments > 0`` replaces the ideal line with an LC ladder of the same
    impedance/delay (the sparse-backend system-scale workload; mirrors
    ``link.segments`` of the job spec).
    """

    z0: float = 131.0
    delay: float = 0.4e-9
    source_resistance: float = 50.0
    load_resistance: float = 500.0
    load_capacitance: float = 1e-12
    vdd: float = 1.8
    bit_time: float = 2e-9
    edge_time: float = 1e-10
    bit_pattern: str = "010"
    segments: int = 0

    @classmethod
    def from_job_spec(cls, spec) -> "LinearLinkSpec":
        """Testbench defaults taken from a :class:`repro.api.spec.SimulationSpec`.

        Duck-typed (reads ``spec.link``, ``spec.stimulus``, ``spec.devices``)
        so this module stays import-independent of :mod:`repro.api`; the job
        API's sweep adapter is the caller.
        """
        return cls(
            z0=spec.link.z0,
            delay=spec.link.delay,
            source_resistance=spec.link.source_resistance,
            load_resistance=spec.link.load_resistance,
            load_capacitance=spec.link.load_capacitance,
            vdd=float(spec.devices.params.get("vdd", cls.vdd)),
            bit_time=spec.stimulus.bit_time,
            edge_time=spec.stimulus.edge_time,
            bit_pattern=spec.stimulus.bit_pattern,
            segments=spec.link.segments,
        )

    def build(self, scenario: Scenario) -> Circuit:
        """The linear link circuit for one scenario."""
        pattern = scenario.bit_pattern or self.bit_pattern
        stimulus = BitPattern(
            pattern=pattern,
            bit_time=self.bit_time,
            low=0.0,
            high=self.vdd * scenario.drive_strength,
            edge_time=self.edge_time,
        )
        circuit = Circuit(f"linear-link-{scenario.name}")
        circuit.add(VoltageSource("vin", "src", GROUND, stimulus))
        circuit.add(
            Resistor("rs", "src", "near", scenario.corner_value("source_resistance", self.source_resistance))
        )
        _add_sweep_interconnect(
            circuit,
            scenario.corner_value("z0", self.z0),
            scenario.corner_value("delay", self.delay),
            self.segments,
        )
        circuit.add(
            Resistor("rload", "far", GROUND, scenario.corner_value("load_resistance", self.load_resistance))
        )
        circuit.add(
            Capacitor("cload", "far", GROUND, scenario.corner_value("load_capacitance", self.load_capacitance))
        )
        return circuit


@dataclasses.dataclass(frozen=True)
class RBFLinkSpec:
    """Defaults of the RBF macromodel link testbench.

    ``devices`` maps device-variant labels (matched against
    ``scenario.device``) to ``(driver, receiver)`` macromodel pairs; the
    ``None`` key provides the default pair.  All variants' submodels may be
    shared objects — sharing is what makes cross-scenario batching of the
    Gaussian evaluation possible.
    """

    devices: Mapping[Optional[str], Tuple[DriverMacromodel, ReceiverMacromodel]] = None
    z0: float = 131.0
    delay: float = 0.4e-9
    vdd: float = 1.8
    bit_time: float = 2e-9
    bit_pattern: str = "010"
    segments: int = 0

    @classmethod
    def from_job_spec(cls, spec) -> "RBFLinkSpec":
        """Testbench defaults taken from a :class:`repro.api.spec.SimulationSpec`.

        The devices mapping is filled in by :func:`rbf_link_sweep` (the job
        API resolves the macromodels from ``spec.devices`` separately).
        """
        return cls(
            z0=spec.link.z0,
            delay=spec.link.delay,
            vdd=float(spec.devices.params.get("vdd", cls.vdd)),
            bit_time=spec.stimulus.bit_time,
            bit_pattern=spec.stimulus.bit_pattern,
            segments=spec.link.segments,
        )

    def pair(self, scenario: Scenario) -> Tuple[DriverMacromodel, ReceiverMacromodel]:
        """The (driver, receiver) pair of one scenario."""
        if self.devices is None:
            raise ValueError("RBFLinkSpec needs a devices mapping")
        try:
            return self.devices[scenario.device]
        except KeyError as exc:
            raise KeyError(
                f"scenario {scenario.name!r} requests unknown device variant "
                f"{scenario.device!r}; available: {sorted(map(str, self.devices))}"
            ) from exc

    def initial_level(self, scenario: Scenario) -> float:
        """The driver's initial level: Vdd when the pattern starts with '1'."""
        pattern = scenario.bit_pattern or self.bit_pattern
        return self.vdd if pattern[0] == "1" else 0.0

    def initial_voltages(self, scenario: Scenario) -> Dict[str, float]:
        """Initial node voltages of one scenario's run: the line's level."""
        v0 = self.initial_level(scenario)
        return {"near": v0, "far": v0}

    def build(self, scenario: Scenario, dt: float) -> Circuit:
        """The RBF link circuit for one scenario."""
        if scenario.drive_strength != 1.0:
            raise ValueError(
                f"scenario {scenario.name!r}: drive_strength has no meaning for the "
                "RBF link (the identified driver macromodel fixes the drive); "
                "express drive variants as device variants instead"
            )
        driver, receiver = self.pair(scenario)
        pattern = scenario.bit_pattern or self.bit_pattern
        bound = driver.bound(LogicStimulus.from_pattern(pattern, self.bit_time))
        v0 = self.initial_level(scenario)
        circuit = Circuit(f"rbf-link-{scenario.name}")
        circuit.add(MacromodelElement("drv", "near", GROUND, bound, dt, v0=v0))
        _add_sweep_interconnect(
            circuit,
            scenario.corner_value("z0", self.z0),
            scenario.corner_value("delay", self.delay),
            self.segments,
            v_initial=v0,
        )
        if "load_resistance" in scenario.corner or "load_capacitance" in scenario.corner:
            circuit.add(
                Resistor("rload", "far", GROUND, scenario.corner_value("load_resistance", 500.0))
            )
            circuit.add(
                Capacitor("cload", "far", GROUND,
                          scenario.corner_value("load_capacitance", 1e-12), v0=v0)
            )
        else:
            circuit.add(MacromodelElement("rx", "far", GROUND, receiver, dt, v0=v0))
        return circuit


def linear_link_sweep(
    scenarios,
    dt: float = 5e-12,
    duration: float = 6e-9,
    spec: LinearLinkSpec | None = None,
    options: TransientOptions | None = None,
    batch_prepare: bool = False,
) -> CircuitSweep:
    """A sweep over the linear link (shared-LU block-solve path).

    ``batch_prepare`` is accepted for job-spec uniformity; the linear link
    has no RBF ports, so the batched regressor fold is a no-op here.
    """
    spec = spec or LinearLinkSpec()
    return CircuitSweep(
        spec.build,
        scenarios,
        dt=dt,
        duration=duration,
        record_nodes=["near", "far"],
        record_branches=[],
        options=options,
        batch_prepare=batch_prepare,
    )


def rbf_link_sweep(
    scenarios,
    devices: Dict[Optional[str], Tuple[DriverMacromodel, ReceiverMacromodel]],
    dt: float = 5e-12,
    duration: float = 6e-9,
    spec: RBFLinkSpec | None = None,
    options: TransientOptions | None = None,
    batch_prepare: bool = False,
) -> CircuitSweep:
    """A sweep over the RBF macromodel link (batched Gaussian evaluation)."""
    spec = dataclasses.replace(spec or RBFLinkSpec(), devices=devices)
    return CircuitSweep(
        lambda scenario: spec.build(scenario, dt),
        scenarios,
        dt=dt,
        duration=duration,
        record_nodes=["near", "far"],
        record_branches=[],
        options=options,
        initial_voltages=spec.initial_voltages,
        batch_prepare=batch_prepare,
    )
