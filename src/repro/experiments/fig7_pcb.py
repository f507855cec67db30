"""Figure 7 — PCB field coupling with and without the incident plane wave.

"The innermost strip is driven by the RBF macromodel of the driver on one
end and is terminated on the other end by the RBF macromodel of the
receiver.  All the other terminations consist of 50 ohm resistors.  The
driver forces a '010' bit sequence at its output port.  In addition, an
external wave Gaussian pulse impinges on the structure from a direction
{theta = 90 deg, phi = 180 deg} with theta-polarized electric field ...
The amplitude of the pulse is 2 kV/m, with a bandwidth of 9.2 GHz.
Fig. 7 shows the termination voltages for the driven line with and without
incident field."

This module runs the two 3-D FDTD simulations (with and without the
incident field) on the PCB structure and reports the four series of the
paper's figure: near-end and far-end voltage, each with and without the
external field, together with the magnitude of the field-induced
disturbance.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.core.cosim import SimulationResult
from repro.core.resampling import ResampledPortModel
from repro.experiments.devices import ReferenceMacromodels, identified_reference_macromodels
from repro.fdtd.courant import courant_time_step
from repro.fdtd.plane_wave import PlaneWaveSource
from repro.macromodel.driver import LogicStimulus
from repro.structures.pcb import PCBStructure

__all__ = ["Figure7Result", "run_figure7"]


@dataclasses.dataclass
class Figure7Result:
    """Outcome of the Figure 7 reproduction.

    Attributes
    ----------
    results:
        Mapping ``"with_field"`` / ``"no_field"`` -> :class:`SimulationResult`
        with ``near_end`` (driver) and ``far_end`` (receiver) probes.
    disturbance:
        Mapping probe name -> peak absolute difference between the two runs
        (the field-induced disturbance visible in the paper's figure).
    incident_amplitude:
        Peak incident field in V/m.
    """

    results: Dict[str, SimulationResult]
    disturbance: Dict[str, float]
    incident_amplitude: float

    @property
    def series(self) -> Dict[str, np.ndarray]:
        """The four curves of the paper's figure, keyed like its legend."""
        w = self.results["with_field"]
        n = self.results["no_field"]
        return {
            "NE, with ext. field": w.voltage("near_end"),
            "FE, with ext. field": w.voltage("far_end"),
            "NE, no ext. field": n.voltage("near_end"),
            "FE, no ext. field": n.voltage("far_end"),
        }


def _run_pcb(
    structure: PCBStructure,
    models: ReferenceMacromodels,
    duration: float,
    bit_time: float,
    with_field: bool,
    amplitude: float,
    bandwidth: float,
) -> SimulationResult:
    dt = courant_time_step(structure.in_plane_cell, structure.in_plane_cell, structure.layer_height)
    stimulus = LogicStimulus.from_pattern("010", bit_time)
    driver = ResampledPortModel(models.driver.bound(stimulus), dt)
    receiver = ResampledPortModel(models.receiver, dt)
    plane_wave = (
        PlaneWaveSource.paper_figure7(amplitude=amplitude, bandwidth_hz=bandwidth)
        if with_field
        else None
    )
    solver, drv_site, rx_site = structure.build_solver(
        driver, receiver, dt=dt, plane_wave=plane_wave
    )
    times = solver.run(duration=duration)
    return SimulationResult(
        times=times,
        voltages={"near_end": drv_site.voltages, "far_end": rx_site.voltages},
        currents={"near_end": drv_site.currents, "far_end": rx_site.currents},
        engine="fdtd3d-rbf",
        newton_stats=solver.newton_stats,
        metadata={
            "dt": dt,
            "cells": structure.nx * structure.ny * structure.nz,
            "with_field": with_field,
            "wall_time": solver.wall_time,
        },
    )


def run_figure7(
    scale: float = 1.0,
    duration: float = 6e-9,
    bit_time: float = 2e-9,
    amplitude: float = 2000.0,
    bandwidth: float = 9.2e9,
    use_identification: bool = True,
    models: Optional[ReferenceMacromodels] = None,
) -> Figure7Result:
    """Run the PCB experiment with and without the incident field.

    Parameters
    ----------
    scale:
        Board scale (1.0 = the 5 cm x 5 cm board of the paper).
    duration, bit_time:
        Simulated span and driver bit time (6 ns and 2 ns in the paper).
    amplitude, bandwidth:
        Incident Gaussian plane-wave parameters (2 kV/m, 9.2 GHz).
    use_identification / models:
        Macromodel source, as in the other experiments.
    """
    structure = PCBStructure.paper() if scale >= 1.0 else PCBStructure.scaled(scale)
    if models is None:
        models = identified_reference_macromodels(use_identification=use_identification)

    results = {
        "no_field": _run_pcb(structure, models, duration, bit_time, False, amplitude, bandwidth),
        "with_field": _run_pcb(structure, models, duration, bit_time, True, amplitude, bandwidth),
    }
    disturbance = {}
    for probe in ("near_end", "far_end"):
        ref = results["no_field"].voltage(probe)
        pert = results["with_field"].resampled_voltage(probe, results["no_field"].times)
        disturbance[probe] = float(np.max(np.abs(pert - ref)))
    return Figure7Result(
        results=results, disturbance=disturbance, incident_amplitude=amplitude
    )
