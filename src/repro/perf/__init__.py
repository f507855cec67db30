"""Fast-path kernel layer shared by the three simulation engines.

The reproduction's physics is cheap — a handful of Gaussian evaluations per
Newton iteration, a few stencil sweeps per FDTD step — but the seed
implementation paid for it with Python/NumPy overhead: per-iteration matrix
allocation and full re-stamping in the MNA solver, ``(N, L, D)`` broadcasts
in the RBF basis, and temporary-allocating field updates in the FDTD
steppers.  This package concentrates the optimised kernels:

* :mod:`repro.perf.mna` — split static/dynamic MNA assembly with
  preallocated work arrays and a cached LU factorisation (purely linear
  circuits factor exactly once per transient).
* :mod:`repro.perf.backends` — pluggable linear-solver backends behind
  the assembler: the dense LAPACK path and a sparse-CSC path (COO-recorded
  stamps, cached sparsity pattern, one ``splu`` of the static network per
  run, Newton iterations as port-rank updates of it) selected
  automatically above ``SPARSE_THRESHOLD`` (70) unknowns, the measured
  crossover of Newton transients, or pinned via
  ``TransientOptions(backend=...)``.
* :mod:`repro.perf.rbf_fast` — separable evaluation of the Gaussian RBF
  macromodels (paper Eqs. 3-4): within one time step's Newton solve only
  the present port voltage changes while the regressor states are frozen,
  so the state-dependent Gaussian factor is computed once per step and only
  a one-dimensional Gaussian in ``v`` remains per iteration.
* :mod:`repro.perf.fdtd_fast` — allocation-free Yee updates with the
  ``1/dx`` divisions folded into precomputed coefficients, run as 1-D
  contiguous passes over zero-padded field blocks, plus flat-index
  PEC/dielectric application with precomputed plane-wave retardation.

Every fast path is numerically equivalent to the naive reference
implementation (bit-compatible or well below 1e-12 relative, enforced by
``tests/test_perf_fastpath.py``); the reference paths survive as oracles
and are selected with ``fast=False`` options or the global switch below.

A handful of numerically-neutral cleanups are shared by both paths rather
than gated: the Gram-form ``basis()`` with cached centre norms, the scalar
waveform fast paths, the transmission-line history buffers and the snapping
of numerically-zero plane-wave direction components.  These change results
by at most ~1 ulp per evaluation (the snap removes a physically meaningless
1e-17-scale field), so the ``fast=False`` oracle remains equivalent to the
seed within the same tolerance the equivalence suite enforces.

Global switch
-------------
:func:`fastpath_default` is consulted by every engine whose ``fast`` option
is left at ``None``.  It defaults to ``True`` and can be overridden
process-wide with the ``REPRO_FASTPATH`` environment variable (``0`` /
``false`` / ``off`` disable it; the variable is re-read on every call, so
it may be set at any time) or temporarily with the :func:`use_fastpath`
context manager, which takes precedence over the environment.
"""

from __future__ import annotations

import contextlib
import os

__all__ = ["fastpath_default", "use_fastpath", "resolve_fast"]


def _env_default() -> bool:
    return os.environ.get("REPRO_FASTPATH", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


#: :func:`use_fastpath` override; ``None`` means "follow the environment"
_FASTPATH_OVERRIDE: bool | None = None


def fastpath_default() -> bool:
    """Whether engines run their fast path when ``fast`` is not given."""
    if _FASTPATH_OVERRIDE is not None:
        return _FASTPATH_OVERRIDE
    return _env_default()


@contextlib.contextmanager
def use_fastpath(enabled: bool):
    """Temporarily force the fast-path default (used by tests/benchmarks)."""
    global _FASTPATH_OVERRIDE
    previous = _FASTPATH_OVERRIDE
    _FASTPATH_OVERRIDE = bool(enabled)
    try:
        yield
    finally:
        _FASTPATH_OVERRIDE = previous


def resolve_fast(fast: bool | None) -> bool:
    """Resolve a tri-state ``fast`` option against the global default."""
    return fastpath_default() if fast is None else bool(fast)
