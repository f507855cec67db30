"""Fast-path MNA assembly with cached factorizations.

The reference transient solver (:mod:`repro.circuits.transient`) rebuilds
the whole MNA system from scratch at every Newton iteration: it allocates a
fresh ``(n, n)`` matrix, stamps *every* element (including the purely linear
ones, whose matrix contribution never changes within a run), loops over the
nodes in Python for the ``gmin`` diagonal and calls a fresh dense solve.

This module splits that work by how often it actually changes:

* **once per run** — the matrix stamps of all ``stamp_kind == "static"``
  elements (resistors, capacitor/inductor companions, source incidence
  rows, transmission-line characteristic rows) plus the vectorised ``gmin``
  diagonal;
* **once per time step** — the x-independent RHS (source values at ``t``,
  companion-model history currents, line history voltages) is assembled
  into a preallocated ``rhs_static`` via ``stamp_rhs``;
* **once per Newton iteration** — only the nonlinear ("dynamic") elements
  are re-stamped on top of the cached static parts, using their
  index-cached ``stamp_fast`` when available.

*How* the matrix is stored, re-stamped and solved is delegated to a
pluggable :class:`~repro.perf.backends.LinearSolverBackend`: the dense
LAPACK backend (preallocated ``(n, n)`` arrays, ``dgesv``, cached
``lu_factor`` — purely linear circuits factor exactly once per transient)
or the sparse-CSC backend (COO-recorded stamps, cached sparsity pattern,
one ``splu`` of the static matrix per transient, on which a Newton
iteration is a port-rank update) selected automatically above
:data:`~repro.perf.backends.SPARSE_THRESHOLD` unknowns or explicitly via
``TransientOptions.backend``.  :attr:`FastPathAssembler.stats` counts
factorizations, cached solves, port solves, sparse pattern reuses and
symbolic factorizations so tests can assert the caches are actually hit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.circuits.elements import (
    Capacitor,
    CapacitorBank,
    CurrentSource,
    CurrentSourceBank,
    ElementBank,
    Inductor,
    InductorBank,
    Resistor,
    ResistorBank,
    StampContext,
    VoltageSource,
    VoltageSourceBank,
)
from repro.perf.backends import (
    SPARSE_THRESHOLD,
    make_backend,
    _lu_factor,
    _lu_solve,
    _splu,
)
from repro.resilience import SINGULAR_MATRIX, RunHealth, SolveFailure
from repro.resilience import faults as _faults

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuits.netlist import Circuit, CompiledCircuit

__all__ = [
    "FastPathAssembler",
    "SharedStaticContext",
    "SPARSE_THRESHOLD",
    "compact_elements",
]


# ---------------------------------------------------------------------------
# bank compaction: group homogeneous scalar elements into vectorised banks
# ---------------------------------------------------------------------------

#: a group needs at least this many members before compaction pays for itself
COMPACTION_MIN_GROUP = 2


def _bank_from_group(kind, members, tag: int):
    """A synthetic bank stamping/accepting exactly like the scalar ``members``.

    The members were already compiled into the circuit, so banks with branch
    unknowns (inductors, voltage sources) address the members' existing rows
    via ``branch_names`` instead of a block of their own.  Companion-model
    state is copied from the members so compaction is valid even when a
    caller assembles mid-run state (the solver compacts right after reset).
    """
    name = f"__bank{tag}_{kind.__name__.lower()}"
    nodes_a = [el.nodes[0] for el in members]
    nodes_b = [el.nodes[1] for el in members]
    if kind is Resistor:
        return ResistorBank(name, nodes_a, nodes_b,
                            [el.resistance for el in members])
    if kind is Capacitor:
        bank = CapacitorBank(name, nodes_a, [el.capacitance for el in members],
                             v0=[el.v0 for el in members], nodes_b=nodes_b)
        bank._v_prev = np.asarray([el._v_prev for el in members], dtype=float)
        bank._i_prev = np.asarray([el._i_prev for el in members], dtype=float)
        return bank
    if kind is Inductor:
        bank = InductorBank(name, nodes_a, nodes_b,
                            [el.inductance for el in members],
                            i0=[el.i0 for el in members],
                            branch_names=[el.name for el in members])
        bank._i_prev = np.asarray([el._i_prev for el in members], dtype=float)
        bank._v_prev = np.asarray([el._v_prev for el in members], dtype=float)
        return bank
    # share_waveforms=False keeps one callable invocation per member per
    # step — the scalar elements' call count and per-kind order.  (Only
    # the cross-kind interleaving can differ, and only for a waveform
    # object that is not a pure function of t, which no solver path
    # supports order-stably anyway: the reference path re-evaluates per
    # Newton iteration.)
    waveforms = [
        el._const_value if el._const_value is not None else el.waveform
        for el in members
    ]
    if kind is VoltageSource:
        return VoltageSourceBank(name, nodes_a, nodes_b, waveforms,
                                 branch_names=[el.name for el in members],
                                 share_waveforms=False)
    return CurrentSourceBank(name, nodes_a, nodes_b, waveforms,
                             share_waveforms=False)


_BANKABLE = (Resistor, Capacitor, Inductor, VoltageSource, CurrentSource)

#: behaviour hooks whose presence in an instance ``__dict__`` marks the
#: element as customised — a bank would silently drop the override
#: (``value`` is the hook the source stamps actually call per step)
_BEHAVIOUR_HOOKS = (
    "accept", "needs_accept", "reset", "value",
    "stamp", "stamp_static", "stamp_rhs", "stamp_fast", "prepare_fast",
)


def _is_plain(element) -> bool:
    """Whether an element carries no instance-level behaviour overrides."""
    instance_dict = element.__dict__
    return not any(hook in instance_dict for hook in _BEHAVIOUR_HOOKS)


def compact_elements(elements, min_group: int = COMPACTION_MIN_GROUP):
    """Group homogeneous scalar elements into banks for one assembler run.

    Only exact, uncustomised instances of the five stock scalar kinds are
    grouped: subclasses and elements with instance-installed behaviour
    (e.g. a per-instance ``accept`` probe) may carry extra semantics a
    synthetic bank would silently drop, so they pass through untouched.
    Each bank replaces its first member's position in the element order.
    Returns ``(effective_elements, n_compacted)`` where ``n_compacted``
    counts the scalar elements absorbed into banks.
    """
    elements = list(elements)
    groups: dict[type, list[int]] = {}
    for idx, el in enumerate(elements):
        if type(el) in _BANKABLE and _is_plain(el):
            groups.setdefault(type(el), []).append(idx)
    groups = {kind: idxs for kind, idxs in groups.items() if len(idxs) >= min_group}
    if not groups:
        return elements, 0
    absorbed = {idx: kind for kind, idxs in groups.items() for idx in idxs}
    out = []
    emitted: set[type] = set()
    compacted = 0
    for tag, el in enumerate(elements):
        kind = absorbed.get(tag)
        if kind is not None:
            if kind not in emitted:
                emitted.add(kind)
                members = [elements[idx] for idx in groups[kind]]
                out.append(_bank_from_group(kind, members, tag))
                compacted += len(members)
        else:
            out.append(el)
    return out, compacted


class SharedStaticContext:
    """Static stamp and factorization shared across the runs of a sweep.

    Scenario sweeps (:mod:`repro.sweep`) run many transients whose circuits
    differ only in their *stimuli* (bit patterns, source amplitudes): every
    static matrix stamp — and its factorization — is identical across the
    batch.  A ``SharedStaticContext`` passed to several
    :class:`FastPathAssembler` instances lets the first run assemble and
    factor, and every later run reuse the result.

    Depending on the solver backend the captured state is the dense static
    matrix (``A_static`` + ``lu``, factored for purely linear circuits) or
    the sparse one (``sparse_state`` — the static COO triplets and their
    CSC compression — + ``sparse_lu``, which Newton runs share too: their
    iterations are port-rank updates of it); the backend name is part of
    the compatibility signature, so one context is never shared across
    backends.

    The caller guarantees that all sharing circuits produce identical static
    stamps (same topology, same element values, same ``dt``/``method``/
    ``gmin``); the context verifies only a cheap signature (unknown count,
    time step, method, gmin, backend) and raises on mismatch.
    """

    def __init__(self):
        self.A_static: np.ndarray | None = None
        self.lu = None
        self.sparse_lu = None
        #: sparse-backend capture: (rows, cols, vals, csc_static)
        self.sparse_state: tuple | None = None
        self.signature: tuple | None = None
        self.stats = {"factorizations": 0, "static_reuses": 0, "block_solves": 0}
        #: health telemetry of the shared solve paths (the sweep engine
        #: merges this into its aggregate run health)
        self.health = RunHealth()
        self._factorization_failed = False
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

    # -- factorization reuse ----------------------------------------------
    def ensure_factorized(self) -> None:
        """Factor the captured static matrix once (no-op when already done).

        Used by the sweep engine's direct linear path, which solves all
        scenarios of a step in one block solve without going through a
        per-assembler :meth:`FastPathAssembler.solve`.
        """
        if self.A_static is None and self.sparse_state is None:
            raise RuntimeError("no static matrix captured yet")
        if self.lu is not None or self.sparse_lu is not None or self._factorization_failed:
            return
        if _faults.PLAN is not None and _faults.take("singular"):
            self._note_singular("injected singular static factorization",
                                injected=True)
            return
        if self.sparse_state is not None:
            try:
                self.sparse_lu = _splu(self.sparse_state[3])
            except RuntimeError as exc:
                # Singular static matrix: remember the failure so per-step
                # solve_block calls do not retry the factorization, and let
                # the dense lstsq fallback below handle the solves.
                self._note_singular(str(exc) or "static splu factorization failed")
                return
        else:
            self.lu = _lu_factor(self.A_static, check_finite=False)
        self.stats["factorizations"] += 1

    def _note_singular(self, message: str, **context) -> None:
        """Record a singular static factorization in the unified taxonomy."""
        self._factorization_failed = True
        self.health.note_backend_fallback(SolveFailure(
            SINGULAR_MATRIX, message=message,
            context={"site": "shared_static", **context},
        ))

    def _dense_static(self) -> np.ndarray:
        """The captured static matrix as a dense array (robust fallback)."""
        if self.A_static is not None:
            return self.A_static
        if self._dense_cache is None:
            self._dense_cache = self.sparse_state[3].toarray()
        return self._dense_cache

    def solve_block(self, rhs_block: np.ndarray) -> np.ndarray:
        """Solve ``A_static X = rhs_block`` for a whole ``(n, M)`` block."""
        self.ensure_factorized()
        self.stats["block_solves"] += 1
        if self.sparse_lu is not None:
            x = self.sparse_lu.solve(rhs_block)
        elif self.lu is not None:
            x = _lu_solve(self.lu, rhs_block)
        else:
            try:
                x = np.linalg.solve(self._dense_static(), rhs_block)
            except np.linalg.LinAlgError:  # exactly singular: robust path below
                x = np.full_like(rhs_block, np.nan)
        if _faults.PLAN is not None and _faults.take("singular"):
            x = np.full_like(x, np.nan)
        # count_nonzero: the same test as .all(), at a third of its cost on
        # sweep-sized blocks
        self.fell_back = np.count_nonzero(np.isfinite(x)) != x.size
        if self.fell_back:
            # Singular/ill-posed system: per-column robust fallback, counted
            # through the same taxonomy as every other singular-solve event.
            self.health.note_backend_fallback(SolveFailure(
                SINGULAR_MATRIX,
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
    dt, method, gmin:
        Time step, integration method and node-to-ground conductance of the
        run (fixed for the assembler's lifetime).
    shared:
        Optional :class:`SharedStaticContext` for sweep batches.
    backend:
        Linear-solver backend: ``"dense"``, ``"sparse"`` or ``None``/
        ``"auto"`` (dense at paper scale, sparse above
        :data:`~repro.perf.backends.SPARSE_THRESHOLD` unknowns).
    compact_banks:
        Group homogeneous scalar elements into vectorised
        :class:`~repro.circuits.elements.ElementBank` instances for this
        run (default ``True``).  Compaction changes neither the unknown
        numbering nor the stamped values — only how many Python calls
        each step costs.
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
        method: str,
        gmin: float,
        shared: SharedStaticContext | None = None,
        backend: str | None = None,
        compact_banks: bool = True,
        health: RunHealth | None = None,
    ):
        self.circuit = circuit
        self.compiled = compiled
        self.dt = float(dt)
        self.method = method
        self.gmin = float(gmin)
        self._shared = shared
        self.health = health if health is not None else RunHealth()
        self.compact_banks = compact_banks

        elements = list(circuit.elements)
        compacted = 0
        if self.compact_banks:
            elements, compacted = compact_elements(elements)
        #: the element list this run assembles/accepts (banks substituted)
        self.elements = elements

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
            "bank_compaction": self.compact_banks,
            "banked_elements": sum(
                len(el) for el in elements if isinstance(el, ElementBank)
            ),
            "compacted_elements": compacted,
            "accept_calls": 0,
        }
        self.backend = make_backend(backend, self)
        self.stats["backend"] = self.backend.name

    def accept_elements(self) -> list:
        """The elements whose ``accept`` must run after every converged step.

        Banks commit their whole member set in one array-wide call, so the
        per-step accept loop shrinks to one entry per bank.
        """
        return [el for el in self.elements if el.needs_accept]

    # -- assembly ---------------------------------------------------------
    def begin_run(self) -> None:
        """Assemble the per-run static matrix (call after element resets).

        When a :class:`SharedStaticContext` was given and already holds a
        captured static matrix, the assembly (and any cached factorization)
        is reused instead of recomputed — the caller vouches that the static
        stamps are identical across the sharing runs.
        """
        shared = self._shared
        if shared is not None:
            shared._check_signature(
                (self.compiled.n_unknowns, self.dt, self.method, self.gmin,
                 self.backend.name)
            )
            if self.backend.adopt_shared(shared):
                shared.stats["static_reuses"] += 1
                self.stats["static_reused"] = True
                for element, _ in self.dynamic_stamps:
                    element.prepare_fast(self.compiled)
                return
        ctx = StampContext(self.compiled, self.dt, 0.0, self.method)
        self.backend.assemble_static(ctx, shared)
        for element, _ in self.dynamic_stamps:
            element.prepare_fast(self.compiled)

    def begin_step(self, t: float) -> StampContext:
        """Assemble the per-step static RHS and return the step context."""
        ctx = StampContext(self.compiled, self.dt, t, self.method)
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
            return self.backend.static_system(), self._rhs_static
        rhs = self._rhs
        np.copyto(rhs, self._rhs_static)
        A = self.backend.iterate(x, ctx, rhs)
        return A, rhs

    # -- solves -----------------------------------------------------------
    def solve(self, A, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs``, reusing the cached factorization when valid."""
        return self.backend.solve(A, rhs)
