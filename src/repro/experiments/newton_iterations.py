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

from repro.core import newton
from repro.core.cosim import LinkDescription
from repro.experiments.devices import ReferenceMacromodels, identified_reference_macromodels
from repro.experiments.fig4_rc_load import run_fdtd1d_link, run_fdtd3d_link
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
    link = LinkDescription(load="rc", duration=duration)

    histogram: Dict[str, Dict[int, int]] = {}
    max_iterations: Dict[str, int] = {}
    mean_iterations: Dict[str, float] = {}
    # The 3-D engine runs on a shortened structure.
    runs = {
        "fdtd1d-rbf": run_fdtd1d_link(models, link),
        "fdtd3d-rbf": run_fdtd3d_link(ValidationLineStructure.scaled(scale), models, link),
    }
    for engine, result in runs.items():
        stats = result.newton_stats
        histogram[engine] = dict(stats.histogram)
        max_iterations[engine] = stats.max_iterations
        mean_iterations[engine] = stats.mean_iterations

    return NewtonIterationResult(
        histogram=histogram,
        max_iterations=max_iterations,
        mean_iterations=mean_iterations,
        tolerance=newton.TOLERANCE,
    )
