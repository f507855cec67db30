"""repro — Combined FDTD/Macromodel simulation of interconnected digital devices.

A from-scratch Python reproduction of S. Grivet-Talocia, I. S. Stievano,
I. A. Maio and F. G. Canavero, "Combined FDTD/Macromodel Simulation of
Interconnected Digital Devices", DATE 2003.

The package is organised by subsystem:

* :mod:`repro.waveforms` — stimulus generation and waveform analysis.
* :mod:`repro.macromodel` — Gaussian-RBF parametric macromodels of digital
  I/O ports (drivers and receivers) and their identification.
* :mod:`repro.circuits` — a SPICE-class MNA transient simulator with
  transistor-level reference devices and an ideal-transmission-line model.
* :mod:`repro.fdtd` — 1-D and 3-D FDTD solvers with lumped elements, Mur
  boundaries and plane-wave illumination.
* :mod:`repro.core` — the paper's contribution: resampling of the
  discrete-time macromodels onto the solver time step, its stability
  analysis, and the Newton-Raphson coupling of macromodel ports with the
  field update.
* :mod:`repro.structures` — the two structures of the paper's evaluation.
* :mod:`repro.experiments` — one module per figure, regenerating the
  paper's curves and comparison metrics.
* :mod:`repro.perf` — fast-path kernels and the pluggable
  ``LinearSolverBackend`` seam (tuned dense, cached LU, sparse CSC).
* :mod:`repro.sweep` — batched scenario sweeps sharing one
  static factorization per corner group, with eye/worst-corner reports.
* :mod:`repro.api` — the unified job front door: declarative
  :class:`~repro.api.spec.SimulationSpec` jobs (JSON-serialisable,
  content-hashed), the engine adapters, the uniform
  :class:`~repro.api.result.Result`, and the ``python -m repro`` CLI.
* :mod:`repro.resilience` — the failure taxonomy, per-run health
  telemetry, bounded retry policies and the fault-injection harness.
* :mod:`repro.service` — the simulation-as-a-service daemon
  (``python -m repro serve``): jobs over HTTP, results content-addressed
  by spec hash so identical submissions never re-solve.

The ``docs/`` tree holds the prose documentation: ``architecture.md``
(module map and the life of a job), ``job-spec.md`` (every spec block
and engine option), ``service.md`` (HTTP endpoint reference) and
``operations.md`` (environment variables, cache layout, exit codes).

Quickstart
----------
Every engine is reachable through the declarative job API — a spec is
plain data (JSON-serialisable, hashable, shippable to workers):

>>> from repro.api import SimulationSpec, run
>>> spec = SimulationSpec(kind="fdtd1d")   # the paper's Fig. 4 link, RC load
>>> result = run(spec)
>>> result.waveform("far_end").shape
(1250,)

or, driving the solver objects directly:

>>> from repro.macromodel import make_reference_driver_macromodel
>>> from repro.macromodel.driver import LogicStimulus
>>> from repro.core.ports import ParallelRCTermination
>>> from repro.core.resampling import ResampledPortModel
>>> from repro.fdtd.solver1d import FDTD1DLine
>>> driver = make_reference_driver_macromodel().bound(LogicStimulus.from_pattern("010", 2e-9))
>>> dt = 0.4e-9 / 100
>>> line = FDTD1DLine(131.0, 0.4e-9,
...                   ResampledPortModel(driver, dt),
...                   ParallelRCTermination(500.0, 1e-12, dt))
>>> result = line.run(5e-9)
>>> result.voltage("far_end").shape
(1250,)
"""

from repro.core.cosim import LinkDescription, SimulationResult
from repro.core.newton import NewtonStats
from repro.core.ports import (
    OpenTermination,
    ParallelRCTermination,
    ResistorTermination,
    ResistiveSourceTermination,
)
from repro.core.resampling import ResampledPortModel
from repro.macromodel import (
    DriverMacromodel,
    LogicStimulus,
    ReceiverMacromodel,
    make_reference_driver_macromodel,
    make_reference_receiver_macromodel,
)
from repro.macromodel.library import ReferenceDeviceParameters

# Single-sourced from pyproject.toml via the installed package metadata;
# the fallback covers source-tree (PYTHONPATH=src) runs without metadata.
try:
    from importlib.metadata import PackageNotFoundError as _PkgNotFound
    from importlib.metadata import version as _pkg_version

    __version__ = _pkg_version("repro-smc03")
except _PkgNotFound:
    __version__ = "0.2.0"


def __getattr__(name: str):
    # Lazy submodule export: `repro.api` pulls in every engine layer, so it
    # is imported on first attribute access instead of at package import.
    if name == "api":
        import repro.api as api

        return api
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "api",
    "LinkDescription",
    "SimulationResult",
    "NewtonStats",
    "OpenTermination",
    "ParallelRCTermination",
    "ResistorTermination",
    "ResistiveSourceTermination",
    "ResampledPortModel",
    "DriverMacromodel",
    "ReceiverMacromodel",
    "LogicStimulus",
    "make_reference_driver_macromodel",
    "make_reference_receiver_macromodel",
    "ReferenceDeviceParameters",
    "__version__",
]
