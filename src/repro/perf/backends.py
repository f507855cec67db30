"""Pluggable linear-solver backends for the fast MNA path.

The fast assembler (:class:`repro.perf.mna.FastPathAssembler`) separates
*what* is stamped (static once per run, x-independent RHS once per step,
nonlinear elements once per Newton iteration) from *how* the resulting
linear system is stored and solved.  This module owns the "how": a
:class:`LinearSolverBackend` holds the matrix representation, runs the
dynamic re-stamps into it and solves the system, so swapping the storage
format never touches the element stamps, the solver session API or the
sweep engine.

Two backends are provided:

* :class:`DenseBackend` — today's tuned dense path: a preallocated
  ``(n, n)`` static matrix, ``np.copyto`` + in-place dynamic stamps per
  iteration, raw-LAPACK ``dgesv`` solves and a cached
  ``scipy.linalg.lu_factor``, solved by raw ``dgetrs``, for constant
  Jacobians.  The default (and the fastest) at paper-sized circuits.
* :class:`SparseBackend` — true sparse assembly for netlists beyond about
  seventy unknowns.  Static stamps are recorded **once per run** as COO
  triplets (scalar elements through a recorder stand-in, element banks as
  one whole-triplet record per bank) and compressed to CSC; the first
  Newton iteration's dynamic stamps extend the pattern, after which the
  symbolic work (pattern union, COO→CSC position maps) is cached and every
  further iteration only rewrites the numeric ``data`` array
  (``pattern_reuses`` counts this).
  The static matrix is ``splu``-factorised exactly once per transient
  (once per corner group in a sweep, through
  :class:`~repro.perf.mna.SharedStaticContext`).  That is the whole
  system of a purely linear circuit; a Newton transient solves each
  iteration as a rank-``p`` update of it over the ``p`` port unknowns
  its dynamic stamps touch.

Backend selection
-----------------
``resolve_backend_name(None | "auto", n)`` picks ``"dense"`` at or below
:data:`SPARSE_THRESHOLD` unknowns (70, the measured crossover of Newton
transients) and ``"sparse"`` above it.  The assembler records its choice
and the unknown count as ``stats["backend"]`` and ``stats["n_unknowns"]``.
Explicit ``"dense"`` / ``"sparse"`` (``TransientOptions.backend``) pin
the backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import lu_factor as _lu_factor
from scipy.linalg.lapack import dgesv as _dgesv, dgetrs as _dgetrs
from scipy.sparse import csc_matrix as _csc_matrix
from scipy.sparse.linalg import splu as _splu

from repro.resilience import SINGULAR_MATRIX, SolveFailure
from repro.resilience import faults as _faults

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.mna import FastPathAssembler

__all__ = [
    "SPARSE_THRESHOLD",
    "resolve_backend_name",
    "make_backend",
    "BACKEND_NAMES",
    "LinearSolverBackend",
    "DenseBackend",
    "SparseBackend",
]

#: unknown count above which ``"auto"`` selects the sparse backend: the
#: measured dense/sparse crossover of a nonlinear (Newton) transient, an
#: RBF-terminated LC ladder, which breaks even near 35 sections (about 70
#: unknowns).  Dense factors the Jacobian every iteration; sparse factors
#: the static network once and costs about the same per iteration at any
#: size.  Purely linear circuits in that band run sparse at 0.88-0.94x of
#: dense speed (``benchmarks/bench_sparse.py`` records both)
SPARSE_THRESHOLD = 70

#: row-wise relative residual bound of a sparse Newton iteration's
#: port-rank solve (see :meth:`SparseBackend._port_solve`); an update past
#: it is redone by factoring the whole system
PORT_SOLVE_RTOL = 1e-13

#: the backend names accepted by options/specs (``None`` means ``"auto"``)
BACKEND_NAMES = ("auto", "dense", "sparse")


def _lu_solve(lu_and_piv, rhs: np.ndarray) -> np.ndarray:
    """Solve with ``lu_factor``'s factors through raw LAPACK ``getrs``.

    The routine ``scipy.linalg.lu_solve`` calls, so the bits are the same,
    without its wrapper, which costs more than the solve at circuit sizes.
    """
    x, info = _dgetrs(*lu_and_piv, rhs)
    if info:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def resolve_backend_name(backend: str | None, n_unknowns: int) -> str:
    """Resolve a backend request to a concrete backend name.

    ``None`` / ``"auto"`` pick dense at or below :data:`SPARSE_THRESHOLD`
    unknowns and sparse above it.
    """
    if backend is None or backend == "auto":
        backend = "sparse" if n_unknowns > SPARSE_THRESHOLD else "dense"
    if backend not in ("dense", "sparse"):
        raise ValueError(
            f"unknown linear-solver backend {backend!r}; expected one of {BACKEND_NAMES}"
        )
    return backend


def make_backend(backend: str | None, assembler: "FastPathAssembler") -> "LinearSolverBackend":
    """Instantiate the resolved backend for one assembler run."""
    name = resolve_backend_name(backend, assembler.compiled.n_unknowns)
    cls = SparseBackend if name == "sparse" else DenseBackend
    return cls(assembler)


class LinearSolverBackend:
    """Matrix-representation strategy of one :class:`FastPathAssembler` run.

    The assembler drives the backend through four hooks:

    * :meth:`adopt_shared` — pick up a previously captured static matrix
      (and factors) from a :class:`~repro.perf.mna.SharedStaticContext`;
      returns ``False`` when nothing is captured yet.
    * :meth:`assemble_static` — stamp the static elements plus the
      ``gmin`` diagonal once per run (and capture into the shared context).
    * :meth:`iterate` — run the dynamic (nonlinear) stamps around ``x``
      on top of the static parts; returns the matrix token that
      :meth:`solve` accepts.  The dense RHS is managed by the assembler.
    * :meth:`solve` — solve ``A x = rhs``, reusing cached factors whenever
      the Jacobian is known constant.

    ``stats`` is the assembler's counter dict; backends write their
    counters (factorizations, cached/dense solves, pattern reuses) there.
    """

    name = "base"

    def __init__(self, assembler: "FastPathAssembler"):
        # What the backend reads of its assembler, not the assembler itself:
        # the assembler owns the backend, and a back-reference would keep a
        # finished run's factors alive until the cyclic collector runs.
        self.stats = assembler.stats
        self.health = assembler.health
        self.compiled = assembler.compiled
        self.gmin = assembler.gmin
        self.shared = assembler._shared
        self.linear_only = assembler.linear_only
        self.static_elements = assembler.static_elements
        self.dynamic_fns = assembler._dynamic_fns

    # -- resilience hooks --------------------------------------------------
    def _check_injected_faults(self) -> bool:
        """Fire planted backend faults; True when a ``singular`` was taken.

        ``backend_error`` faults raise immediately (the transient solver
        classifies the exception); ``singular`` faults report True so the
        calling solve path can divert into its degraded fallback exactly as
        it would for a genuinely singular factorization.  Costs one module
        attribute load when no plan is installed.
        """
        if _faults.PLAN is None:
            return False
        if _faults.take("backend_error"):
            raise _faults.InjectedBackendError(
                f"injected backend error ({self.name} backend)"
            )
        return _faults.take("singular")

    def _note_singular_fallback(self, message: str, **context) -> None:
        """Record a degraded-but-successful singular-solve recovery."""
        scenario, step = _faults._CONTEXT
        self.health.note_backend_fallback(SolveFailure(
            SINGULAR_MATRIX, step=step, scenario=scenario, message=message,
            context={"backend": self.name, **context},
        ))

    # -- static assembly ---------------------------------------------------
    def adopt_shared(self, shared) -> bool:
        raise NotImplementedError

    def assemble_static(self, ctx, shared) -> None:
        raise NotImplementedError

    # -- per-iteration assembly and solves --------------------------------
    def static_system(self):
        """The matrix token of the (linear-only) static system."""
        raise NotImplementedError

    def iterate(self, x, ctx, rhs):
        """Dynamic re-stamp around ``x`` into a fresh system; returns the token."""
        raise NotImplementedError

    def solve(self, A, rhs) -> np.ndarray:
        raise NotImplementedError


class DenseBackend(LinearSolverBackend):
    """Today's dense-LAPACK path: preallocated arrays, ``dgesv``, cached LU.

    Purely linear circuits are ``lu_factor``-ised exactly once per
    transient and every further step reuses the factors
    (``stats["cached_solves"]``).  Nonlinear circuits re-stamp only the
    dynamic elements on an ``np.copyto`` of the static parts and solve
    with raw LAPACK ``gesv`` (bit-identical to ``np.linalg.solve`` minus
    the wrapper overhead).
    """

    name = "dense"

    def __init__(self, assembler: "FastPathAssembler"):
        super().__init__(assembler)
        n = self.compiled.n_unknowns
        self._A_static = np.zeros((n, n))
        self._A = np.zeros((n, n))
        self._A_solve = np.zeros((n, n))  # scratch clobbered by in-place LAPACK
        self._lu = None

    # -- static assembly ---------------------------------------------------
    def adopt_shared(self, shared) -> bool:
        if shared.A_static is None:
            return False
        self._A_static = shared.A_static
        self._lu = shared.lu
        return True

    def assemble_static(self, ctx, shared) -> None:
        A = self._A_static
        A[:] = 0.0
        for element in self.static_elements:
            # Element banks scatter their whole COO triplet block with one
            # np.add.at inside their stamp_static (the target is an ndarray).
            element.stamp_static(A, ctx)
        diag = self.compiled.node_diagonal
        A[diag, diag] += self.gmin
        self._lu = None
        if shared is not None:
            shared.A_static = A

    # -- per-iteration assembly and solves --------------------------------
    def static_system(self):
        return self._A_static

    def iterate(self, x, ctx, rhs):
        A = self._A
        np.copyto(A, self._A_static)
        for stamp in self.dynamic_fns:
            stamp(A, rhs, x, ctx)
        return A

    def solve(self, A, rhs) -> np.ndarray:
        shared = self.shared
        injected_singular = _faults.PLAN is not None and self._check_injected_faults()
        if self.linear_only:
            if injected_singular:
                # Treat exactly like a factorization that came back
                # singular: drop the cached factors and divert to the dense
                # re-solve below.  ``dgesv`` is ``getrf``+``getrs`` — the
                # same factorization ``lu_factor``/``lu_solve`` performs —
                # so the recovered step is bit-identical to the cached path.
                self._lu = None
                if shared is not None:
                    shared.lu = None
                self._note_singular_fallback(
                    "injected singular factorization; dense re-solve",
                    injected=True,
                )
            else:
                if self._lu is None and shared is not None:
                    # A sharing run may have factored after our begin_run (e.g.
                    # the linear members of a mixed linear/nonlinear group, or
                    # the sweep engine's block-solve path): pick the factors up
                    # lazily instead of refactoring.
                    self._lu = shared.lu
                if self._lu is None:
                    self._lu = _lu_factor(A, check_finite=False)
                    self.stats["factorizations"] += 1
                    if shared is not None:
                        shared.lu = self._lu
                        shared.stats["factorizations"] += 1
                else:
                    self.stats["cached_solves"] += 1
                x = _lu_solve(self._lu, rhs)
                if np.all(np.isfinite(x)):
                    return x
                # Singular / ill-posed system: fall through to the robust path.
                self._lu = None
                if shared is not None:
                    shared.lu = None
                self._note_singular_fallback(
                    "cached factorization produced non-finite solution; "
                    "dense re-solve",
                )
        self.stats["dense_solves"] += 1
        if not self.linear_only:
            self.stats["factorizations"] += 1
        if injected_singular and not self.linear_only:
            self._note_singular_fallback(
                "injected singular solve; least-squares fallback",
                injected=True,
            )
            return np.linalg.lstsq(A, rhs, rcond=None)[0]
        # Raw LAPACK gesv: same factorization as np.linalg.solve (the
        # results are bit-identical) without the wrapper overhead, which
        # is significant at typical circuit sizes.  ``A`` stays intact
        # for the singular-case fallback below.
        np.copyto(self._A_solve, A)
        _, _, x, info = _dgesv(self._A_solve, rhs, overwrite_a=1, overwrite_b=0)
        if info == 0:
            return x
        self._note_singular_fallback(
            f"dgesv reported singular factor (info={int(info)}); "
            "least-squares fallback",
        )
        return np.linalg.lstsq(A, rhs, rcond=None)[0]


class _StampRecorder:
    """ndarray stand-in that records scalar ``A[i, j] += v`` as COO triplets.

    The element stamps only ever touch the matrix through scalar in-place
    adds (``A[i, j] += value``), which CPython executes as
    ``A[i, j] = A[i, j] + value`` on non-ndarray objects — so returning
    ``0.0`` from ``__getitem__`` makes ``__setitem__`` receive exactly the
    *increment*, which is the COO duplicate-summing convention.
    """

    __slots__ = ("rows", "cols", "vals")

    def __init__(self):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def __getitem__(self, key) -> float:
        return 0.0

    def __setitem__(self, key, value) -> None:
        i, j = key
        self.rows.append(i)
        self.cols.append(j)
        self.vals.append(value)


class SparseBackend(LinearSolverBackend):
    """True sparse-CSC assembly with cached sparsity pattern and ``splu``.

    The static stamps are recorded once per run as COO triplets
    (:class:`_StampRecorder`); the first Newton iteration records the
    dynamic stamp positions, after which the union pattern is compressed
    to CSC **once** (the symbolic analysis of the assembly side) and every
    later iteration only rewrites the numeric ``data`` array:

    * static base values land at precomputed positions
      (``np.add.at`` over the cached COO→CSC index map);
    * dynamic increments are appended by the recorder and scattered
      through a per-position dict lookup (a handful of entries — only the
      nonlinear elements re-stamp).

    Elements whose stamp pattern varies between iterations (a MOSFET in
    cutoff skips its writes entirely) simply grow the union pattern the
    first time a new position appears; ``stats["symbolic_factorizations"]``
    counts the pattern builds and ``stats["pattern_reuses"]`` the
    iterations that hit the cache.

    Every run ``splu``-factors its static matrix exactly once (once per
    sweep corner group through the shared context).  For a purely linear
    circuit that is the whole system.  A Newton transient's system differs
    from it only in the ``p`` unknowns its dynamic stamps touch (the ports:
    ``near`` and ``far`` on the RBF link), so each iteration is solved as a
    rank-``p`` (Woodbury) update of the static factors, with
    ``Z = A_static⁻¹ E`` computed once per dynamic pattern
    (``stats["port_solves"]`` counts these iterations).  An update whose
    residual fails :data:`PORT_SOLVE_RTOL`, or a static matrix ``splu``
    cannot factor, takes the per-iteration ``splu`` of the whole system
    instead.  So does every iteration of a pattern with a port whose
    static row holds nothing but the ``gmin`` diagonal: the update would
    lose its digits there, fail the guard and be redone.
    """

    name = "sparse"

    def __init__(self, assembler: "FastPathAssembler"):
        super().__init__(assembler)
        self.stats.setdefault("sparse_factorizations", 0)
        self.stats.setdefault("symbolic_factorizations", 0)
        self.stats.setdefault("pattern_reuses", 0)
        if not self.linear_only:
            self.stats.setdefault("port_solves", 0)
        n = self.compiled.n_unknowns
        self._n = n
        # static COO triplets (stamp order, duplicates kept)
        self._static_rows: np.ndarray | None = None
        self._static_cols: np.ndarray | None = None
        self._static_vals: np.ndarray | None = None
        # cached pattern: CSC indices/indptr, static base data, and each
        # dynamic position's (CSC data index, flat index in the port block)
        self._indices: np.ndarray | None = None
        self._indptr: np.ndarray | None = None
        self._static_base: np.ndarray | None = None
        self._pos_of: dict[tuple[int, int], tuple[int, int]] = {}
        self._dyn_keys: set[tuple[int, int]] = set()
        self._data: np.ndarray | None = None
        self._csc = None
        self._csc_static = None
        #: factors of the static matrix (the whole system when linear-only)
        self._lu = None
        self._static_failed = False
        # port-rank update: the unknowns the dynamic stamps touch, their
        # summed stamps this iteration (p x p), Z = A_static^-1 E, W = Z[ports]
        self._ports = np.zeros(0, dtype=np.intp)
        self._port_block = np.zeros((0, 0))
        self._block_flat = self._port_block.reshape(-1)
        self._Z: np.ndarray | None = None
        self._W: np.ndarray | None = None
        self._eye: np.ndarray | None = None
        #: row sums of |A_static| over the union pattern (the guard's scale)
        self._row_abs: np.ndarray | None = None
        #: a port's static row is the gmin diagonal alone: skip the update
        self._gmin_held_port = False

    # -- static assembly ---------------------------------------------------
    def adopt_shared(self, shared) -> bool:
        state = shared.sparse_state
        if state is None:
            return False
        (self._static_rows, self._static_cols, self._static_vals,
         self._csc_static) = state
        self._lu = shared.sparse_lu
        if self.linear_only:
            # The captured static pattern IS the full pattern; adopting it
            # is a reuse, not a fresh symbolic analysis.
            self._adopt_static_pattern()
        return True

    def assemble_static(self, ctx, shared) -> None:
        recorder = _StampRecorder()
        # Scalar elements record through the scalar stand-in; element banks
        # contribute their whole COO triplet block in one append per bank.
        bank_rows: list[np.ndarray] = []
        bank_cols: list[np.ndarray] = []
        bank_vals: list[np.ndarray] = []
        for element in self.static_elements:
            coo = getattr(element, "stamp_static_coo", None)
            if coo is not None:
                rows, cols, vals = coo(ctx)
                if len(rows):
                    bank_rows.append(np.asarray(rows, dtype=np.int64))
                    bank_cols.append(np.asarray(cols, dtype=np.int64))
                    bank_vals.append(np.asarray(vals, dtype=np.float64))
            else:
                element.stamp_static(recorder, ctx)
        diag = self.compiled.node_diagonal
        self._static_rows = np.concatenate(
            [np.asarray(recorder.rows, dtype=np.int64), *bank_rows,
             diag.astype(np.int64)]
        )
        self._static_cols = np.concatenate(
            [np.asarray(recorder.cols, dtype=np.int64), *bank_cols,
             diag.astype(np.int64)]
        )
        self._static_vals = np.concatenate(
            [np.asarray(recorder.vals, dtype=np.float64), *bank_vals,
             np.full(diag.size, self.gmin)]
        )
        self._lu = None
        self._csc_static = self._build_static_csc()
        if self.linear_only:
            self._adopt_static_pattern()
            self.stats["symbolic_factorizations"] += 1
        if shared is not None:
            shared.sparse_state = (
                self._static_rows, self._static_cols, self._static_vals,
                self._csc_static,
            )

    def _build_static_csc(self):
        """Compress the static COO triplets to CSC (duplicates summed in order)."""
        indices, indptr, positions = self._compress_pattern(
            self._static_rows, self._static_cols
        )
        base = np.zeros(indices.size)
        np.add.at(base, positions, self._static_vals)
        return _csc_matrix((base, indices, indptr), shape=(self._n, self._n))

    def _adopt_static_pattern(self) -> None:
        """Linear-only runs: the static CSC doubles as the full system."""
        self._indices = self._csc_static.indices
        self._indptr = self._csc_static.indptr
        self._static_base = self._csc_static.data

    def _compress_pattern(self, rows, cols):
        """CSC pattern of a COO entry set plus each entry's data position.

        This is the symbolic half of the assembly: done once per pattern,
        after which numeric re-stamps only scatter into the cached
        positions (the callers count ``stats["symbolic_factorizations"]``).
        """
        n = self._n
        keys = cols * n + rows  # column-major == CSC data order
        unique_keys, positions = np.unique(keys, return_inverse=True)
        indices = (unique_keys % n).astype(np.int32)
        col_of = unique_keys // n
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.add.at(indptr, col_of + 1, 1)
        np.cumsum(indptr, out=indptr)
        return indices, indptr, positions

    def _build_union_pattern(self) -> None:
        """(Re)build the static+dynamic union pattern and its index maps."""
        self.stats["symbolic_factorizations"] += 1
        dyn = np.asarray(sorted(self._dyn_keys), dtype=np.int64).reshape(-1, 2)
        rows = np.concatenate([self._static_rows, dyn[:, 0]])
        cols = np.concatenate([self._static_cols, dyn[:, 1]])
        indices, indptr, positions = self._compress_pattern(rows, cols)
        self._indices = indices
        self._indptr = indptr
        n_static = self._static_rows.size
        self._static_base = np.zeros(indices.size)
        np.add.at(self._static_base, positions[:n_static], self._static_vals)
        self._row_abs = np.bincount(indices, weights=np.abs(self._static_base),
                                    minlength=self._n)
        ports = np.unique(dyn)
        self._gmin_held_port = bool((self._row_abs[ports] <= self.gmin).any())
        p = ports.size
        slot = dict(zip(ports.tolist(), range(p)))
        self._pos_of = {
            (i, j): (int(pos), slot[i] * p + slot[j])
            for (i, j), pos in zip(dyn.tolist(), positions[n_static:])
        }
        self._ports = ports.astype(np.intp)
        self._port_block = np.zeros((p, p))
        self._block_flat = self._port_block.reshape(-1)  # iterate() fills it
        self._Z = None  # the ports changed: Z is recomputed at the next solve
        self._csc = _csc_matrix(
            (np.empty(indices.size), self._indices, self._indptr),
            shape=(self._n, self._n),
        )
        self._data = self._csc.data  # write-through view: iterate() fills it

    # -- per-iteration assembly and solves --------------------------------
    def static_system(self):
        return self._csc_static

    def iterate(self, x, ctx, rhs):
        recorder = _StampRecorder()
        for stamp in self.dynamic_fns:
            stamp(recorder, rhs, x, ctx)
        pos_of = self._pos_of
        pairs = list(zip(recorder.rows, recorder.cols))
        if self._indices is None or any(key not in pos_of for key in pairs):
            # First iteration, or an element stamped a position never seen
            # before (e.g. a MOSFET leaving cutoff): grow the union pattern.
            self._dyn_keys.update(pairs)
            self._build_union_pattern()
            pos_of = self._pos_of
        else:
            self.stats["pattern_reuses"] += 1
        data, block = self._data, self._block_flat
        np.copyto(data, self._static_base)
        block.fill(0.0)
        for key, val in zip(pairs, recorder.vals):
            pos, slot = pos_of[key]
            data[pos] += val
            block[slot] += val
        return self._csc

    def _factor_static(self) -> None:
        """``splu`` the static matrix, count it and share it with the group.

        Raises ``RuntimeError`` (``self._lu`` stays ``None``) when ``splu``
        finds the matrix singular.
        """
        self._lu = _splu(self._csc_static)
        self.stats["factorizations"] += 1
        self.stats["sparse_factorizations"] += 1
        if self.shared is not None:
            self.shared.sparse_lu = self._lu
            self.shared.stats["factorizations"] += 1

    def _static_factors(self):
        """The static matrix's ``splu`` factors, factored once per run/group.

        ``None`` when ``splu`` could not factor it; the run then factors
        its whole system every iteration.  A factorization a sharing run
        made after this run began is picked up instead of refactoring.
        """
        if self._lu is None and self.shared is not None:
            self._lu = self.shared.sparse_lu
        if self._lu is None and not self._static_failed:
            try:
                self._factor_static()
            except RuntimeError:  # singular static network: whole-system path
                self._static_failed = True
        return self._lu

    def _port_solve(self, A, rhs):
        """Solve ``A x = rhs`` as a port-rank update of the static factors.

        With ``A = A_static + E D Eᵀ`` (``E`` selects the ports, ``D`` is
        this iteration's port block), ``y = A_static⁻¹ rhs`` and
        ``Z = A_static⁻¹ E``: the port unknowns solve the ``p x p`` system
        ``(I + Z[ports] D) x_ports = y[ports]`` and ``x = y - Z D x_ports``.
        Returns ``None`` when there are no static factors or the residual
        ``|A x - rhs|`` exceeds :data:`PORT_SOLVE_RTOL` times
        ``rowsum|A| max|x| + |rhs|`` in any row: near-singular static
        factors cancel digits here that factoring ``A`` itself keeps.  (A
        port node held to the rest of the network only through ``gmin``, the
        plainest such case, never gets here: :meth:`solve` skips the update.)
        """
        lu = self._static_factors()
        if lu is None:
            return None
        ports, block = self._ports, self._port_block
        x = lu.solve(rhs)
        if ports.size:
            if self._Z is None:
                columns = np.zeros((self._n, ports.size))
                columns[ports, np.arange(ports.size)] = 1.0
                self._Z = lu.solve(columns)
                self._W = self._Z[ports]
                self._eye = np.eye(ports.size)
            _, _, x_ports, info = _dgesv(self._eye + self._W @ block, x[ports])
            if info:
                return None
            x -= self._Z @ (block @ x_ports)
        # The guard: the whole system's residual, row by row, on the matrix
        # iterate() filled.
        residual = np.abs(A @ x - rhs)
        x_max = np.abs(x).max()
        bound = self._row_abs * x_max
        bound[ports] += np.abs(block).sum(axis=1) * x_max
        bound += np.abs(rhs)
        if not (residual <= PORT_SOLVE_RTOL * bound).all():
            return None
        return x

    def solve(self, A, rhs) -> np.ndarray:
        shared = self.shared
        injected_singular = _faults.PLAN is not None and self._check_injected_faults()
        if injected_singular:
            # As if splu had reported the system singular: drop any cached
            # factors and divert to the dense robust fallback below.
            lu = None
            self._lu = None
            self._Z = None
            if shared is not None:
                shared.sparse_lu = None
            self._note_singular_fallback(
                "injected singular sparse factorization; dense fallback",
                injected=True,
            )
        elif self.linear_only:
            if self._lu is None and shared is not None:
                self._lu = shared.sparse_lu
            if self._lu is None:
                try:
                    self._factor_static()  # A is the static matrix
                except RuntimeError as exc:  # structurally/numerically singular
                    self._note_singular_fallback(
                        str(exc) or "splu factorization failed; dense fallback",
                    )
            else:
                self.stats["cached_solves"] += 1
            lu = self._lu
        else:
            x = None if self._gmin_held_port else self._port_solve(A, rhs)
            if x is not None:
                self.stats["port_solves"] += 1
                return x
            # A gmin-held port, no static factors, or an update that failed
            # its guard: factor the whole system for this iteration.
            try:
                lu = _splu(A)
            except RuntimeError as exc:  # structurally/numerically singular
                lu = None
                self._note_singular_fallback(
                    str(exc) or "splu factorization failed; dense fallback",
                )
            self.stats["factorizations"] += 1
            self.stats["sparse_factorizations"] += 1
        if lu is not None:
            x = lu.solve(rhs)
            if np.all(np.isfinite(x)):
                return x
            if self.linear_only:
                self._lu = None
                if shared is not None:
                    shared.sparse_lu = None
            self._note_singular_fallback(
                "sparse factorization produced non-finite solution; "
                "dense fallback",
            )
        # Singular / ill-posed system: dense robust fallback (rare path).
        self.stats["dense_solves"] += 1
        dense = A.toarray()
        try:
            return np.linalg.solve(dense, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(dense, rhs, rcond=None)[0]
