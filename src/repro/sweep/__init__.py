"""Batched scenario sweeps: many transients through one engine context.

The paper's macromodels pay off at scale — eye diagrams, corner analyses
and pattern sweeps run the same link hundreds of times with only the
stimulus or a few element values changed.  This package runs such batches
so the engine work that does not change across scenarios is done once:

* :mod:`repro.sweep.scenario` — scenario descriptions (patterns, drive
  strengths, corners) and their static-sharing keys;
* :mod:`repro.sweep.engine` — the batched runner (static MNA + LU shared
  per corner group, multi-RHS linear block solves, a standalone Newton
  run for every other scenario);
* :mod:`repro.sweep.lanes` — the array state that steps a sweep's linear
  scenarios together, one lane per scenario;
* :mod:`repro.sweep.links` — the linear and RBF link sweeps, each scenario
  running the sweep's :class:`~repro.core.cosim.LinkDescription` with its
  pattern and corner applied;
* :mod:`repro.sweep.result` — the :class:`SweepResult` container;
* :mod:`repro.sweep.report` — eye-diagram / worst-case-corner reports,
  plus the statistical summaries (distributions, bathtub curves);
* :mod:`repro.sweep.montecarlo` — seed-keyed Monte Carlo scenario
  sampling and adaptive worst-case refinement over the sharded engine.
"""

from repro.sweep.engine import CircuitSweep
from repro.sweep.links import linear_link_sweep, rbf_link_sweep, scenario_link
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
    "linear_link_sweep",
    "rbf_link_sweep",
    "scenario_link",
    "SweepEyeReport",
    "eye_report",
    "metric_distribution",
    "bathtub_curve",
    "generate_scenarios",
    "run_montecarlo",
    "SweepResult",
    "Scenario",
]
