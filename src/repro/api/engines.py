"""Engine registry: spec kinds → adapters over today's solvers.

Each adapter translates a validated :class:`~repro.api.spec.SimulationSpec`
into the existing engine entry points (``run_link_rbf``/``run_link_transistor``,
``run_fdtd1d_link``, ``run_fdtd3d_link``, the sweep builders of
:mod:`repro.sweep.links`) — so a job run through the front door produces
the *same arithmetic* as the direct call, and new backends (numba/JAX
kernels, remote workers) plug in by registering a new adapter instead of
touching call sites.

Registering an engine::

    @register_engine("circuit", summary="MNA transient of the validation link")
    def _run_circuit(spec: SimulationSpec, models=None) -> Result:
        ...

Adapters take the spec plus an optional pre-built
:class:`~repro.experiments.devices.ReferenceMacromodels` override (used by
in-process callers that already hold identified models; workers resolve the
models from ``spec.devices`` instead).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

from repro.api.result import Result
from repro.api.spec import DEFAULT_DT, SimulationSpec

__all__ = [
    "register_engine",
    "get_engine",
    "list_engines",
    "EngineInfo",
    "resolve_models",
    "build_sweep",
]


@dataclasses.dataclass(frozen=True)
class EngineInfo:
    """One registry entry: the spec ``kind`` it serves and a summary line."""

    kind: str
    summary: str
    runner: Callable[..., Result]


_REGISTRY: dict[str, EngineInfo] = {}


def register_engine(kind: str, summary: str = ""):
    """Class/function decorator registering an adapter for a spec kind.

    The adapter must be callable as ``adapter(spec, models=None) -> Result``.
    Re-registering a kind replaces the previous adapter (this is how an
    accelerated backend can shadow the stock one process-wide).
    """

    def decorator(runner: Callable[..., Result]):
        _REGISTRY[kind] = EngineInfo(kind=kind, summary=summary, runner=runner)
        return runner

    return decorator


def get_engine(kind: str) -> EngineInfo:
    """The registered adapter of a spec kind."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise KeyError(
            f"no engine registered for kind {kind!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_engines() -> list[EngineInfo]:
    """Every registered engine, sorted by kind."""
    return [_REGISTRY[kind] for kind in sorted(_REGISTRY)]


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
    if not eng.sparse_mna and eng.max_retries == 0 and eng.on_nonconvergence == "raise":
        return None
    from repro.circuits.transient import TransientOptions
    from repro.resilience import RetryPolicy

    kwargs: dict = {}
    if eng.sparse_mna:
        kwargs["backend"] = "sparse"
    if eng.max_retries > 0:
        kwargs["retry_policy"] = RetryPolicy(max_retries=eng.max_retries)
    kwargs["on_nonconvergence"] = eng.on_nonconvergence
    return TransientOptions(**kwargs)


def _spec_meta(spec: SimulationSpec) -> dict:
    return {"kind": spec.kind, "label": spec.label, "spec_hash": spec.content_hash()}


# ---------------------------------------------------------------------------
# the four stock adapters
# ---------------------------------------------------------------------------

@register_engine(
    "circuit",
    summary="SPICE-class MNA transient of the link (variant: rbf macromodels "
            "or transistor-level reference)",
)
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


@register_engine(
    "fdtd1d",
    summary="1-D FDTD hybrid of the terminated line (dt = delay / n_cells)",
)
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


@register_engine(
    "fdtd3d",
    summary="3-D Yee FDTD hybrid of the discretised validation-line structure",
)
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
    """The single-process lockstep sweep a spec describes.

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
            batch_prepare=spec.engine.batch_prepare,
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
            batch_prepare=spec.engine.batch_prepare,
        )
        engine_label = "sweep-rbf"
    return sweep, engine_label


@register_engine(
    "sweep",
    summary="batched lockstep scenario sweep of the link (family: linear "
            "shared-LU or rbf batched-Gaussian), sharded over a process "
            "pool when engine.workers > 1",
)
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
    if models is None and not sharded and spec.engine.sweep_family == "rbf":
        # An in-process RBF sweep resolves its models once, here; shard
        # workers resolve their own from the sub-spec.
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
