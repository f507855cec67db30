"""Fast-path MNA assembly with cached factorizations.

The reference transient solver (:mod:`repro.circuits.transient`) rebuilds
the whole MNA system from scratch at every Newton iteration: it allocates a
fresh ``(n, n)`` matrix, stamps *every* element (including the purely linear
ones, whose matrix contribution never changes within a run), loops over the
nodes in Python for the ``GMIN`` diagonal and calls a fresh dense solve.

This module splits that work by how often it actually changes:

* **once per run** — the matrix stamps of all ``stamp_kind == "static"``
  elements (resistors, capacitor/inductor companions, source incidence
  rows, transmission-line characteristic rows) plus the vectorised
  :data:`~repro.perf.backends.GMIN` diagonal;
* **once per time step** — the x-independent RHS (source values at ``t``,
  companion-model history currents, line history voltages) is assembled
  into a preallocated ``rhs_static`` via ``stamp_rhs``;
* **once per Newton iteration** — only the nonlinear ("dynamic") elements
  are re-stamped on top of the cached static parts, using their
  index-cached ``stamp_fast`` when available.

The assembler stamps, steps and accepts the circuit's own element list, as
written, like the reference path: a vectorised
:class:`~repro.circuits.elements.ElementBank` (the R/C/L banks the ladder
and mesh generators emit) is one element, and scalar elements stay scalar.

*How* the matrix is stored, re-stamped and solved is delegated to a
pluggable :class:`~repro.perf.backends.LinearSolverBackend`: the dense
LAPACK backend (preallocated ``(n, n)`` arrays, ``dgesv``, cached
``getrf`` factors — purely linear circuits factor exactly once per transient)
or the sparse-CSC backend (COO-recorded stamps, cached sparsity pattern,
one ``splu`` of the static matrix per transient, on which a Newton
iteration is a port-rank update) selected automatically above
:data:`~repro.perf.backends.SPARSE_THRESHOLD` unknowns or explicitly via
``TransientOptions.backend``.  :attr:`FastPathAssembler.stats` counts
factorizations, cached solves, port solves, sparse pattern reuses and
symbolic factorizations so tests can assert the caches are actually hit.

The static matrix and its factors have one owner: the
:class:`SharedStaticContext` every assembler holds (its sweep corner
group's, or a private one for a standalone run).  The backend stamps the
matrix into it once, and the lane sets' block solves, a linear run's
solves and a sparse Newton run's port-rank updates all factor it through
:meth:`SharedStaticContext.factors`, once per run or corner group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.lapack import dgetrf as _dgetrf

from repro.circuits.elements import ElementBank, StampContext
from repro.perf.backends import SPARSE_THRESHOLD, make_backend, _lu_solve, _splu
from repro.resilience import SINGULAR_MATRIX, RunHealth, SolveFailure
from repro.resilience import faults as _faults

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuits.netlist import Circuit, CompiledCircuit

__all__ = [
    "FastPathAssembler",
    "SharedStaticContext",
    "SPARSE_THRESHOLD",
]


class SharedStaticContext:
    """The static network of a fast-path run: its matrix and its factors.

    Every :class:`FastPathAssembler` has one, and it is the only holder of
    the run's static network: the backends read the matrix and its factors
    here and keep no copy.  A standalone run gets a private context.  A
    sweep (:mod:`repro.sweep`) passes one context to every run of a corner
    group, whose circuits differ only in their *stimuli* (bit patterns,
    source amplitudes): the first run assembles the static matrix, every
    later one reuses it, and the group factors it once.

    The dense backend captures ``A_static``, the sparse one
    ``sparse_state``: the static COO triplets and their CSC compression,
    ``(rows, cols, vals, csc)``.  :meth:`factors` factors the matrix into
    ``lu`` at first use (LAPACK ``getrf`` or ``splu``), for the lane sets'
    block solves, a linear run's solves and a sparse Newton run's
    port-rank updates alike.  When the matrix is singular,
    ``factor_error`` says why, and no later call tries again.  The backend
    name is part of the compatibility signature, so one context is never
    shared across backends.

    The caller guarantees that all sharing circuits produce identical static
    stamps (same topology, same element values, same ``dt``); the context
    verifies only a cheap signature (unknown count, time step, backend) and
    raises on mismatch.
    """

    def __init__(self):
        self.A_static: np.ndarray | None = None
        #: sparse-backend capture: (rows, cols, vals, csc)
        self.sparse_state: tuple | None = None
        #: factors of the static matrix: ``getrf``'s ``(lu, piv)``, which is
        #: what ``scipy.linalg.lu_factor`` returns, or a ``splu`` object
        self.lu = None
        #: why the static matrix could not be factored (``None`` until then)
        self.factor_error: str | None = None
        self.signature: tuple | None = None
        self.stats = {"factorizations": 0, "static_reuses": 0, "block_solves": 0}
        #: health telemetry of the shared solve paths (the sweep engine
        #: merges this into its aggregate run health)
        self.health = RunHealth()
        self._dense_cache: np.ndarray | None = None
        #: whether the last :meth:`solve_block` fell back to least squares;
        #: otherwise its solution was checked finite
        self.fell_back = False

    def _check_signature(self, signature: tuple) -> None:
        if self.signature is None:
            self.signature = signature
        elif self.signature != signature:
            raise ValueError(
                "SharedStaticContext reused across incompatible runs: "
                f"{self.signature} vs {signature}"
            )

    @property
    def matrix(self):
        """The captured static matrix (dense array or CSC); ``None`` before capture."""
        return self.A_static if self.sparse_state is None else self.sparse_state[3]

    # -- factorization reuse ----------------------------------------------
    def factors(self):
        """The static matrix's factors, factored at the first call.

        A factorization is counted in ``stats["factorizations"]``.  ``None``
        once the matrix could not be factored (``factor_error`` says why).
        A caller whose solve came out non-finite drops the factors
        (``lu = None``), and the next call factors afresh.
        """
        if self.lu is None and self.factor_error is None:
            if self.sparse_state is None:
                # Raw getrf, which lu_factor wraps: it reports an exactly
                # zero pivot in ``info`` instead of a warning.
                lu, piv, info = _dgetrf(self.A_static)
                if info > 0:  # singular static network
                    self.factor_error = (
                        f"getrf: diagonal number {info} is exactly zero; singular matrix"
                    )
                    return None
                self.lu = (lu, piv)
            else:
                try:
                    self.lu = _splu(self.sparse_state[3])
                except RuntimeError as exc:  # singular static network
                    self.factor_error = str(exc)
                    return None
            self.stats["factorizations"] += 1
        return self.lu

    def ensure_factorized(self) -> None:
        """Factor the captured static matrix once (no-op when already done).

        Used by the sweep engine's direct linear path, which solves all
        scenarios of a step in one block solve without going through a
        per-assembler :meth:`FastPathAssembler.solve`.
        """
        if self.lu is not None or self.factor_error is not None:
            return
        if self.matrix is None:
            raise RuntimeError("no static matrix captured yet")
        if _faults.PLAN is not None and _faults.take("singular"):
            self._note_singular("injected singular static factorization",
                                injected=True)
            return
        if self.factors() is None:
            # Singular static matrix: factors() remembers the failure, so
            # per-step solve_block calls do not retry the factorization, and
            # solve_block's dense fallback handles the solves.
            self._note_singular(self.factor_error)

    def _note_singular(self, message: str, **context) -> None:
        """Record a singular static factorization in the unified taxonomy."""
        self.factor_error = message
        scenario, step = _faults._CONTEXT
        self.health.note_backend_fallback(SolveFailure(
            SINGULAR_MATRIX, step=step, scenario=scenario, message=message,
            context={"site": "shared_static", **context},
        ))

    def _dense_static(self) -> np.ndarray:
        """The captured static matrix as a dense array (robust fallback)."""
        if self.sparse_state is None:
            return self.A_static
        if self._dense_cache is None:
            self._dense_cache = self.sparse_state[3].toarray()
        return self._dense_cache

    def solve_block(self, rhs_block: np.ndarray) -> np.ndarray:
        """Solve ``A_static X = rhs_block`` for a whole ``(n, M)`` block."""
        self.ensure_factorized()
        self.stats["block_solves"] += 1
        lu = self.lu
        if lu is None:
            try:
                x = np.linalg.solve(self._dense_static(), rhs_block)
            except np.linalg.LinAlgError:  # exactly singular: robust path below
                x = np.full_like(rhs_block, np.nan)
        elif self.sparse_state is None:
            x = _lu_solve(lu, rhs_block)
        else:
            x = lu.solve(rhs_block)
        if _faults.PLAN is not None and _faults.take("singular"):
            x = np.full_like(x, np.nan)
        # count_nonzero: the same test as .all(), at a third of its cost on
        # sweep-sized blocks
        self.fell_back = np.count_nonzero(np.isfinite(x)) != x.size
        if self.fell_back:
            # Singular/ill-posed system: per-column robust fallback, counted
            # through the same taxonomy as every other singular-solve event.
            scenario, step = _faults._CONTEXT
            self.health.note_backend_fallback(SolveFailure(
                SINGULAR_MATRIX, step=step, scenario=scenario,
                message="block solve singular/non-finite; least-squares fallback",
                context={"site": "solve_block", "columns": int(rhs_block.shape[1])},
            ))
            dense = self._dense_static()
            x = np.stack(
                [
                    np.linalg.lstsq(dense, rhs_block[:, k], rcond=None)[0]
                    for k in range(rhs_block.shape[1])
                ],
                axis=1,
            )
        return x


class FastPathAssembler:
    """Static/dynamic split assembly for one transient run.

    Parameters
    ----------
    circuit, compiled:
        The circuit and its compiled index maps.
    dt:
        Time step of the run (fixed for the assembler's lifetime).
    shared:
        The :class:`SharedStaticContext` of the run's sweep corner group; a
        private one (:attr:`static`) is made when omitted.
    backend:
        Linear-solver backend: ``"dense"``, ``"sparse"`` or ``None``/
        ``"auto"`` (dense at paper scale, sparse above
        :data:`~repro.perf.backends.SPARSE_THRESHOLD` unknowns).
    health:
        Optional :class:`~repro.resilience.RunHealth` accumulator the
        backends record degraded solves (singular fallbacks) into; the
        transient solver passes its own so backend events land in the same
        telemetry as step-level failures.  A private one is created when
        omitted.
    """

    def __init__(
        self,
        circuit: "Circuit",
        compiled: "CompiledCircuit",
        dt: float,
        shared: SharedStaticContext | None = None,
        backend: str | None = None,
        health: RunHealth | None = None,
    ):
        self.circuit = circuit
        self.compiled = compiled
        self.dt = float(dt)
        #: the run's static network and its factors
        self.static = shared if shared is not None else SharedStaticContext()
        self.health = health if health is not None else RunHealth()

        elements = circuit.elements
        self.static_elements = [
            el for el in elements if getattr(el, "stamp_kind", "dynamic") == "static"
        ]
        # Dynamic elements are paired with their fastest available stamp.
        self.dynamic_stamps = [
            (el, getattr(el, "stamp_fast", None) or el.stamp)
            for el in elements
            if getattr(el, "stamp_kind", "dynamic") != "static"
        ]
        self._dynamic_fns = [stamp for _, stamp in self.dynamic_stamps]
        self.linear_only = not self.dynamic_stamps

        n = compiled.n_unknowns
        self._rhs_static = np.zeros(n)
        self._rhs = np.zeros(n)
        self.stats = {
            "mode": "fast",
            "n_unknowns": n,
            "linear_only": self.linear_only,
            "factorizations": 0,
            "cached_solves": 0,
            "dense_solves": 0,
            "banked_elements": sum(
                len(el) for el in elements if isinstance(el, ElementBank)
            ),
            "accept_calls": 0,
        }
        self.backend = make_backend(backend, self)
        self.stats["backend"] = self.backend.name

    # -- assembly ---------------------------------------------------------
    def begin_run(self) -> None:
        """Assemble the per-run static matrix (call after element resets).

        When the context already holds the static matrix (an earlier run of
        the corner group captured it), it is reused instead of recomputed;
        the caller vouches that the static stamps are identical across the
        sharing runs.
        """
        static = self.static
        static._check_signature((self.compiled.n_unknowns, self.dt, self.backend.name))
        if static.matrix is None:
            self.backend.assemble_static(StampContext(self.compiled, self.dt, 0.0))
        else:
            static.stats["static_reuses"] += 1
            self.stats["static_reused"] = True
        for element, _ in self.dynamic_stamps:
            element.prepare_fast(self.compiled)

    def begin_step(self, t: float) -> StampContext:
        """Assemble the per-step static RHS and return the step context."""
        ctx = StampContext(self.compiled, self.dt, t)
        rhs = self._rhs_static
        rhs[:] = 0.0
        for element in self.static_elements:
            element.stamp_rhs(rhs, ctx)
        return ctx

    def iterate(self, x: np.ndarray, ctx: StampContext) -> tuple[object, np.ndarray]:
        """Assemble the full system for one Newton iteration around ``x``.

        Returns ``(A, rhs)`` where ``A`` is the backend's matrix token (a
        dense array or a CSC matrix) accepted by :meth:`solve`.
        """
        if self.linear_only:
            # The static parts ARE the system; no per-iteration copy needed.
            return self.static.matrix, self._rhs_static
        rhs = self._rhs
        np.copyto(rhs, self._rhs_static)
        A = self.backend.iterate(x, ctx, rhs)
        return A, rhs

    # -- solves -----------------------------------------------------------
    def solve(self, A, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs``, reusing the cached factorization when valid."""
        return self.backend.solve(A, rhs)
