"""Batched scenario sweeps: many transients through one engine context.

The paper's macromodels pay off at scale — eye diagrams, corner analyses
and pattern sweeps run the same link hundreds of times with only the
stimulus or a few element values changed.  This package runs such batches
in lockstep so the engine work that does not change across scenarios is
done once:

* :mod:`repro.sweep.scenario` — scenario descriptions (patterns, corners,
  device variants) and their static-sharing keys;
* :mod:`repro.sweep.engine` — the lockstep batched runner (shared static
  MNA + LU, multi-RHS linear block solves);
* :mod:`repro.sweep.lanes` — the array state that steps a sweep's linear
  scenarios together, one lane per scenario;
* :mod:`repro.sweep.links` — canned linear and RBF link testbenches;
* :mod:`repro.sweep.result` — the :class:`SweepResult` container;
* :mod:`repro.sweep.report` — eye-diagram / worst-case-corner reports,
  plus the statistical summaries (distributions, bathtub curves);
* :mod:`repro.sweep.montecarlo` — seed-keyed Monte Carlo scenario
  sampling and adaptive worst-case refinement over the sharded engine.
"""

from repro.sweep.engine import CircuitSweep
from repro.sweep.links import (
    LinearLinkSpec,
    RBFLinkSpec,
    linear_link_sweep,
    rbf_link_sweep,
)
from repro.sweep.montecarlo import generate_scenarios, run_montecarlo
from repro.sweep.report import (
    SweepEyeReport,
    bathtub_curve,
    eye_report,
    metric_distribution,
)
from repro.sweep.result import SweepResult
from repro.sweep.scenario import Scenario

__all__ = [
    "CircuitSweep",
    "LinearLinkSpec",
    "RBFLinkSpec",
    "linear_link_sweep",
    "rbf_link_sweep",
    "SweepEyeReport",
    "eye_report",
    "metric_distribution",
    "bathtub_curve",
    "generate_scenarios",
    "run_montecarlo",
    "SweepResult",
    "Scenario",
]
