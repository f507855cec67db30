"""Unified job API: declarative specs, one engine table, uniform results.

The paper's pitch is that RBF macromodels make link simulation cheap
enough to run *at scale*.  This package is the scale-facing front door:
instead of four bespoke constructors (circuit
:class:`~repro.circuits.transient.TransientSolver`,
:class:`~repro.fdtd.solver1d.FDTD1DLine`,
:class:`~repro.fdtd.solver3d.FDTD3DSolver`,
:class:`~repro.sweep.engine.CircuitSweep`), a run is described once as
*data* — a :class:`~repro.api.spec.SimulationSpec` that can be validated,
hashed for caching, stored as JSON, shipped to a worker, and replayed —
and executed through one call:

>>> from repro.api import SimulationSpec, run
>>> spec = SimulationSpec(kind="fdtd1d")        # the paper's Fig. 4 link
>>> result = run(spec)
>>> result.waveform("far_end").shape == result.times.shape
True

The same spec serialises to a JSON job file runnable from the shell::

    python -m repro run job.json
    python -m repro describe job.json
    python -m repro list-engines

Layers
------
* :mod:`repro.api.spec` — the frozen, strictly-validated spec dataclasses
  with JSON round-trip and a stable content hash;
* :mod:`repro.api.engines` — the adapters mapping spec kinds onto
  today's solvers, listed in its ``ENGINES`` table;
* :mod:`repro.api.result` — the uniform :class:`~repro.api.result.Result`
  container every engine returns;
* :mod:`repro.api.cli` — the ``python -m repro`` command-line front end.
"""

from __future__ import annotations

import contextlib

from repro.api.engines import ENGINES, resolve_models
from repro.api.result import Result
from repro.api.spec import (
    ENGINE_KINDS,
    FORMAT_VERSION,
    DeviceSpec,
    DistributionSpec,
    EngineOptions,
    LinkSpec,
    ScenarioSpec,
    SimulationSpec,
    StatsSpec,
    StimulusSpec,
    StructureSpec,
    load_spec,
    spec_from_dict,
)

__all__ = [
    "SimulationSpec",
    "StimulusSpec",
    "DeviceSpec",
    "LinkSpec",
    "StructureSpec",
    "ScenarioSpec",
    "DistributionSpec",
    "StatsSpec",
    "EngineOptions",
    "spec_from_dict",
    "load_spec",
    "ENGINE_KINDS",
    "FORMAT_VERSION",
    "Result",
    "resolve_models",
    "run",
    "run_file",
]

def run(spec, *, models=None) -> Result:
    """Execute a simulation spec through its kind's engine adapter.

    This is the synchronous front door every consumer shares: the CLI
    (``python -m repro run``), the service daemon's workers
    (:mod:`repro.service`) and in-process callers all funnel through it,
    so a job produces the same arithmetic however it arrives (see
    ``docs/job-spec.md`` for every block and option).

    Parameters
    ----------
    spec:
        A :class:`~repro.api.spec.SimulationSpec`, or the dict form
        produced by :meth:`~repro.api.spec.SimulationSpec.to_dict` (it is
        validated first).
    models:
        Optional pre-built
        :class:`~repro.experiments.devices.ReferenceMacromodels` override.
        Workers resolve the devices from ``spec.devices``; in-process
        callers that already hold identified models may inject them here
        (the spec remains the source of truth for everything else).

    Returns
    -------
    Result
        The uniform result container; the engine's native result object
        stays available as ``Result.raw``.

    Raises
    ------
    repro.resilience.SolverError
        A typed taxonomy failure the strict policy could not recover
        (``NonConvergenceError`` / ``SingularMatrixError`` /
        ``NanInfError`` / ``BackendError``), carrying its structured
        :class:`~repro.resilience.SolveFailure` record.
    """
    if not isinstance(spec, SimulationSpec):
        spec = spec_from_dict(spec)
    _, adapter = ENGINES[spec.kind]
    if spec.engine.fast is not None:
        from repro import perf

        fast_ctx = perf.use_fastpath(spec.engine.fast)
    else:
        fast_ctx = contextlib.nullcontext()
    with fast_ctx:
        return adapter(spec, models=models)


def run_file(path: str, *, models=None) -> Result:
    """Load a JSON job file and execute it (see :func:`run`)."""
    return run(load_spec(path), models=models)
