"""Engine adapters: spec kinds → today's solvers.

Each adapter translates a validated :class:`~repro.api.spec.SimulationSpec`
into the existing engine entry points (``run_link_rbf``/``run_link_transistor``,
``run_fdtd1d_link``, ``run_fdtd3d_link``, the sweep builders of
:mod:`repro.sweep.links`) — so a job run through the front door produces
the *same arithmetic* as the direct call.  :data:`ENGINES` maps every
kind of :data:`~repro.api.spec.ENGINE_KINDS` to its summary line and
adapter; :func:`repro.api.run`, the CLI and ``GET /engines`` read it.

Adapters take the spec plus an optional pre-built
:class:`~repro.experiments.devices.ReferenceMacromodels` override (used by
in-process callers that already hold identified models; workers resolve the
models from ``spec.devices`` instead).
"""

from __future__ import annotations

import dataclasses
import time

from repro.api.result import Result
from repro.api.spec import DEFAULT_DT, SimulationSpec

__all__ = [
    "ENGINES",
    "resolve_models",
    "build_sweep",
]


# ---------------------------------------------------------------------------
# device resolution
# ---------------------------------------------------------------------------

def resolve_models(spec: SimulationSpec, stats: dict | None = None):
    """The :class:`ReferenceMacromodels` a spec's devices block asks for.

    The models come from the process-wide memo of
    :func:`repro.experiments.devices.reference_macromodels`, so only the
    first job with a given devices block builds them.  When ``stats`` is
    given, ``stats["models"]`` records ``{"source", "cached",
    "resolve_s"}``: the models' provenance, whether the memo already held
    them, and the wall time of this call.
    """
    from repro.experiments.devices import reference_macromodels
    from repro.macromodel.library import ReferenceDeviceParameters

    start = time.perf_counter()
    devices = spec.devices
    models, cached = reference_macromodels(
        devices.source,
        dataclasses.replace(ReferenceDeviceParameters(), **dict(devices.params)),
        n_centers=devices.n_centers,
        seed=devices.seed,
        driver=devices.driver,
        receiver=devices.receiver,
    )
    if stats is not None:
        stats["models"] = {
            "source": models.source,
            "cached": cached,
            "resolve_s": time.perf_counter() - start,
        }
    return models


def _link_description(spec: SimulationSpec):
    """The :class:`LinkDescription` equivalent of a spec's link/stimulus blocks."""
    from repro.core.cosim import LinkDescription

    return LinkDescription(
        z0=spec.link.z0,
        delay=spec.link.delay,
        bit_pattern=spec.stimulus.bit_pattern,
        bit_time=spec.stimulus.bit_time,
        duration=spec.duration,
        load=spec.link.load,
        load_resistance=spec.link.load_resistance,
        load_capacitance=spec.link.load_capacitance,
        segments=spec.link.segments,
    )


def _transient_options(spec: SimulationSpec):
    """The :class:`TransientOptions` a spec's engine block selects, or None."""
    eng = spec.engine
    if eng.max_retries == 0 and eng.on_nonconvergence == "raise":
        return None
    from repro.circuits.transient import TransientOptions
    from repro.resilience import RetryPolicy

    retry_policy = RetryPolicy(max_retries=eng.max_retries) if eng.max_retries > 0 else None
    return TransientOptions(
        on_nonconvergence=eng.on_nonconvergence, retry_policy=retry_policy
    )


def _spec_meta(spec: SimulationSpec) -> dict:
    return {"kind": spec.kind, "label": spec.label, "spec_hash": spec.content_hash()}


# ---------------------------------------------------------------------------
# the four adapters
# ---------------------------------------------------------------------------

def _run_circuit(spec: SimulationSpec, models=None) -> Result:
    from repro.circuits.testbenches import run_link_rbf, run_link_transistor

    link = _link_description(spec)
    dt = spec.engine.dt if spec.engine.dt is not None else DEFAULT_DT
    options = _transient_options(spec)
    model_stats: dict = {}
    if spec.engine.variant == "transistor":
        from repro.macromodel.library import ReferenceDeviceParameters

        params = dataclasses.replace(
            ReferenceDeviceParameters(), **dict(spec.devices.params)
        )
        result = run_link_transistor(link, params, dt=dt, options=options)
    else:
        models = models if models is not None else resolve_models(spec, model_stats)
        result = run_link_rbf(
            link, models.driver, models.receiver, dt=dt, params=models.params,
            options=options,
        )
    out = Result.from_simulation_result(result, meta=_spec_meta(spec))
    out.perf_stats.update(model_stats)
    return out


def _run_fdtd1d(spec: SimulationSpec, models=None) -> Result:
    from repro.experiments.fig4_rc_load import run_fdtd1d_link

    model_stats: dict = {}
    models = models if models is not None else resolve_models(spec, model_stats)
    link = _link_description(spec)
    result = run_fdtd1d_link(
        models, link, z_c=spec.link.z0, t_d=spec.link.delay, n_cells=spec.engine.n_cells
    )
    out = Result.from_simulation_result(result, meta=_spec_meta(spec))
    out.perf_stats.update(model_stats)
    return out


def _run_fdtd3d(spec: SimulationSpec, models=None) -> Result:
    from repro.experiments.fig4_rc_load import run_fdtd3d_link
    from repro.structures.validation_line import ValidationLineStructure

    model_stats: dict = {}
    models = models if models is not None else resolve_models(spec, model_stats)
    structure = ValidationLineStructure.scaled(spec.structure.scale)
    link = _link_description(spec)
    result = run_fdtd3d_link(structure, models, link)
    meta = _spec_meta(spec)
    meta["structure_scale"] = spec.structure.scale
    out = Result.from_simulation_result(result, meta=meta)
    out.perf_stats.update(model_stats)
    return out


def build_sweep(spec: SimulationSpec, models=None):
    """The single-process batched sweep a spec describes.

    Returns ``(sweep, engine_label)`` where ``sweep`` is the ready-to-run
    :class:`~repro.sweep.engine.CircuitSweep`.  Shared by the sweep
    adapter below and the shard workers of :mod:`repro.sweep.shard`
    (which build one sweep per corner-group shard from a sub-spec).
    """
    from repro.sweep.links import (
        LinearLinkSpec,
        RBFLinkSpec,
        linear_link_sweep,
        rbf_link_sweep,
    )

    if spec.stats is not None:
        raise ValueError(
            "build_sweep needs an expanded scenario batch; a stats spec is "
            "sampled by repro.sweep.montecarlo.run_montecarlo first"
        )
    scenarios = [sc.to_scenario() for sc in spec.scenarios]
    dt = spec.engine.dt if spec.engine.dt is not None else DEFAULT_DT
    options = _transient_options(spec)
    if spec.engine.sweep_family == "linear":
        sweep = linear_link_sweep(
            scenarios,
            dt=dt,
            duration=spec.duration,
            spec=LinearLinkSpec.from_job_spec(spec),
            options=options,
        )
        engine_label = "sweep-linear"
    else:
        models = models if models is not None else resolve_models(spec)
        sweep = rbf_link_sweep(
            scenarios,
            {None: (models.driver, models.receiver)},
            dt=dt,
            duration=spec.duration,
            spec=RBFLinkSpec.from_job_spec(spec),
            options=options,
        )
        engine_label = "sweep-rbf"
    return sweep, engine_label


def _run_sweep(spec: SimulationSpec, models=None) -> Result:
    from repro.sweep.shard import resolve_worker_count, run_sharded

    dt = spec.engine.dt if spec.engine.dt is not None else DEFAULT_DT
    meta = _spec_meta(spec)
    meta["dt"] = dt
    engine_label = (
        "sweep-linear" if spec.engine.sweep_family == "linear" else "sweep-rbf"
    )
    workers = resolve_worker_count(spec.engine.workers)
    sharded = workers > 1 or spec.engine.shards is not None
    model_stats: dict = {}
    if models is None and spec.engine.sweep_family == "rbf":
        # An RBF sweep resolves its models once, here, before any pool
        # starts: forked shard workers resolve theirs from the sub-spec
        # through the process memo, which they inherit warm.
        models = resolve_models(spec, model_stats)
    if spec.stats is not None:
        # Monte Carlo statistical sweep: the stats block is expanded into
        # a generated scenario batch and executed through the same
        # (sharded) path below; the statistical summary rides in meta.
        from repro.sweep.montecarlo import run_montecarlo

        result, meta["montecarlo"] = run_montecarlo(spec, models=models)
    elif sharded:
        result = run_sharded(spec, workers=workers, models=models)
    else:
        result = build_sweep(spec, models=models)[0].run()
    out = Result.from_sweep_result(result, engine=engine_label, meta=meta)
    out.perf_stats.update(model_stats)
    return out


#: kind -> (summary line, adapter); the adapter is called as
#: ``adapter(spec, models=None) -> Result``
ENGINES = {
    "circuit": (
        "SPICE-class MNA transient of the link (variant: rbf macromodels "
        "or transistor-level reference)",
        _run_circuit,
    ),
    "fdtd1d": (
        "1-D FDTD hybrid of the terminated line (dt = delay / n_cells)",
        _run_fdtd1d,
    ),
    "fdtd3d": (
        "3-D Yee FDTD hybrid of the discretised validation-line structure",
        _run_fdtd3d,
    ),
    "sweep": (
        "batched scenario sweep of the link (family: linear lane sets "
        "over shared LUs, or rbf Newton runs on shared static stamps), "
        "sharded over a process pool when engine.workers > 1 (a linear "
        "sweep only when its block solves pay for the pool)",
        _run_sweep,
    ),
}
