"""Hybridisation of FDTD and RBF macromodelling (paper Section 3).

This package is the paper's primary contribution:

* :mod:`repro.core.resampling` — the discrete → continuous → discrete time
  conversion of Eq. (13) that lets a macromodel identified at sampling time
  ``Ts`` run at an arbitrary solver time step ``dt`` (the banded ``Q``
  matrix, the resampling factor ``tau = dt/Ts``).
* :mod:`repro.core.stability` — the eigenvalue analysis of Section 3.1 and
  Figure 2 proving that resampling preserves stability when ``tau <= 1``.
* :mod:`repro.core.newton` — the Newton-Raphson scalar solver with
  iteration bookkeeping (the paper reports convergence in at most three
  iterations at a 1e-9 tolerance).
* :mod:`repro.core.ports` — the lumped-termination interface shared by
  the circuit, 1-D FDTD and 3-D FDTD backends: one fused
  ``current_and_dcurrent(v, t) -> (i, g)`` evaluation plus ``commit`` and
  ``reset``, with the linear loads (open, resistor, resistive source, RC).
  A macromodel port is one :class:`ResampledPortModel` on all three
  engines: it is itself the nonlinear termination.
* :mod:`repro.core.lumped_rbf` — the coupled cell update of Eq. (8) + (13):
  given the field-side coefficients of the modified Maxwell-Ampère
  equation, solve for the new port voltage with the termination's analytic
  Jacobian.
* :mod:`repro.core.cosim` — engine-agnostic result containers and link
  descriptions used by the experiment harness.
"""

from repro.core.resampling import (
    ResampledPortModel,
    continuous_eigenvalue,
    resampled_eigenvalue,
    resampling_matrix,
)
from repro.core.stability import (
    StabilityRegion,
    resampled_stability_region,
    is_resampling_stable,
    simulate_scalar_test_problem,
)
from repro.core.newton import NewtonStats, newton_solve_scalar_fused
from repro.core.ports import (
    LumpedTermination,
    OpenTermination,
    ParallelRCTermination,
    ResistorTermination,
    ResistiveSourceTermination,
)
from repro.core.lumped_rbf import HybridCellUpdate
from repro.core.cosim import LinkDescription, SimulationResult

__all__ = [
    "ResampledPortModel",
    "continuous_eigenvalue",
    "resampled_eigenvalue",
    "resampling_matrix",
    "StabilityRegion",
    "resampled_stability_region",
    "is_resampling_stable",
    "simulate_scalar_test_problem",
    "NewtonStats",
    "newton_solve_scalar_fused",
    "LumpedTermination",
    "OpenTermination",
    "ParallelRCTermination",
    "ResistorTermination",
    "ResistiveSourceTermination",
    "HybridCellUpdate",
    "LinkDescription",
    "SimulationResult",
]
