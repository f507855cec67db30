"""Newton-Raphson iteration-count study (paper Section 4).

"We remark that the number of Newton-Raphson iterations required to solve
the RBF model equations never exceeded a maximum number of three, whereas
the accuracy threshold was set to the very stringent value of 1e-9."

This experiment runs the hybrid solvers, whose port solves use the paper's
tolerance (:data:`repro.core.newton.TOLERANCE`), and collects the
per-step iteration histogram of the macromodel ports.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.core.cosim import LinkDescription
from repro.core import newton
from repro.core.ports import ParallelRCTermination
from repro.core.resampling import ResampledPortModel
from repro.experiments.devices import ReferenceMacromodels, identified_reference_macromodels
from repro.fdtd.courant import courant_time_step
from repro.fdtd.solver1d import FDTD1DLine
from repro.macromodel.driver import LogicStimulus
from repro.structures.validation_line import ValidationLineStructure

__all__ = ["NewtonIterationResult", "run_newton_iteration_study"]


@dataclasses.dataclass
class NewtonIterationResult:
    """Iteration statistics of the hybrid Newton solves.

    Attributes
    ----------
    histogram:
        Mapping engine label -> {iteration count: number of solves}.
    max_iterations:
        Mapping engine label -> worst-case iteration count (the paper
        reports 3 for its validation runs).
    mean_iterations:
        Mapping engine label -> average iteration count.
    tolerance:
        The Newton residual threshold of every port solve
        (:data:`repro.core.newton.TOLERANCE`, 1e-9 as in the paper).
    """

    histogram: Dict[str, Dict[int, int]]
    max_iterations: Dict[str, int]
    mean_iterations: Dict[str, float]
    tolerance: float


def run_newton_iteration_study(
    scale: float = 0.25,
    duration: float = 5e-9,
    use_identification: bool = False,
    models: Optional[ReferenceMacromodels] = None,
) -> NewtonIterationResult:
    """Collect Newton iteration statistics from the 1-D and 3-D hybrid runs.

    The default uses a shortened line (``scale=0.25``) because the
    iteration behaviour is a per-port, per-step property that does not
    depend on the line length.
    """
    if models is None:
        models = identified_reference_macromodels(use_identification=use_identification)
    stimulus = LogicStimulus.from_pattern("010", 2e-9)
    link = LinkDescription(load="rc")

    histogram: Dict[str, Dict[int, int]] = {}
    max_iterations: Dict[str, int] = {}
    mean_iterations: Dict[str, float] = {}

    # 1-D FDTD engine.
    dt1d = link.delay / 100
    driver_1d = ResampledPortModel(models.driver.bound(stimulus), dt1d)
    load_1d = ParallelRCTermination(link.load_resistance, link.load_capacitance, dt1d)
    line = FDTD1DLine(link.z0, link.delay, driver_1d, load_1d, n_cells=100)
    result_1d = line.run(duration)
    stats = result_1d.newton_stats
    histogram["fdtd1d-rbf"] = dict(stats.histogram)
    max_iterations["fdtd1d-rbf"] = stats.max_iterations
    mean_iterations["fdtd1d-rbf"] = stats.mean_iterations

    # 3-D FDTD engine on a shortened structure.
    structure = ValidationLineStructure.scaled(scale)
    dt3d = courant_time_step(structure.mesh_size)
    driver_3d = ResampledPortModel(models.driver.bound(stimulus), dt3d)
    load_3d = ParallelRCTermination(link.load_resistance, link.load_capacitance, dt3d)
    solver, _, _ = structure.build_solver(driver_3d, load_3d, dt=dt3d)
    solver.run(duration=duration)
    stats3 = solver.newton_stats
    histogram["fdtd3d-rbf"] = dict(stats3.histogram)
    max_iterations["fdtd3d-rbf"] = stats3.max_iterations
    mean_iterations["fdtd3d-rbf"] = stats3.mean_iterations

    return NewtonIterationResult(
        histogram=histogram,
        max_iterations=max_iterations,
        mean_iterations=mean_iterations,
        tolerance=newton.TOLERANCE,
    )
