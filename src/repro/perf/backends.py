"""Pluggable linear-solver backends for the fast MNA path.

The fast assembler (:class:`repro.perf.mna.FastPathAssembler`) separates
*what* is stamped (static once per run, x-independent RHS once per step,
nonlinear elements once per Newton iteration) from *how* the resulting
linear system is stored and solved.  This module owns the "how": a
:class:`LinearSolverBackend` stamps the static matrix in its storage
format, runs the dynamic re-stamps on top of it and solves the system, so
swapping the storage format never touches the element stamps, the solver
session API or the sweep engine.  The static matrix and its factors have
one owner, the run's :class:`~repro.perf.mna.SharedStaticContext`
(private to a standalone run, shared by a sweep's corner group): a
backend writes the matrix there once, factors it through
:meth:`~repro.perf.mna.SharedStaticContext.factors` and keeps no copy.

Two backends are provided:

* :class:`DenseBackend` — today's tuned dense path: an ``(n, n)`` static
  matrix, ``np.copyto`` + in-place dynamic stamps per iteration,
  raw-LAPACK ``dgesv`` solves and cached raw ``dgetrf`` factors (what
  ``scipy.linalg.lu_factor`` computes), solved by raw ``dgetrs``, for
  constant Jacobians.  The default (and the fastest) at paper-sized
  circuits.
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
  its dynamic stamps touch.  A two-part guard checks each update at the
  cost of the ``p`` ports, not of the network: the residual of the port
  rows is measured, and the residual of every other row is bounded a
  priori by the cancellation in ``x = y - t`` (see
  :meth:`SparseBackend._port_solve`).

Backend selection
-----------------
``resolve_backend_name(None | "auto", n)`` picks ``"dense"`` at or below
:data:`SPARSE_THRESHOLD` unknowns (70, set at the measured crossover of
Newton transients) and ``"sparse"`` above it.  The assembler records its choice
and the unknown count as ``stats["backend"]`` and ``stats["n_unknowns"]``.
Explicit ``"dense"`` / ``"sparse"`` (``TransientOptions.backend``) pin
the backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.lapack import dgesv as _dgesv, dgetrs as _dgetrs
from scipy.sparse import csc_matrix as _csc_matrix
from scipy.sparse.linalg import splu as _splu

from repro.resilience import SINGULAR_MATRIX, SolveFailure
from repro.resilience import faults as _faults

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.mna import FastPathAssembler

__all__ = [
    "GMIN",
    "SPARSE_THRESHOLD",
    "resolve_backend_name",
    "make_backend",
    "BACKEND_NAMES",
    "LinearSolverBackend",
    "DenseBackend",
    "SparseBackend",
]

#: conductance from every node to ground (siemens), stamped by both backends
#: and by the reference path, so a node no element holds stays solvable
GMIN = 1e-12

#: unknown count above which ``"auto"`` selects the sparse backend, set at
#: the measured dense/sparse crossover of a nonlinear (Newton) transient,
#: an RBF-terminated LC ladder, which broke even near 35 sections (about 70
#: unknowns); with the port-rank update's guard at port cost it breaks even
#: near 27 (about 55), and ``auto`` stays within 1.25x of the faster
#: backend.  Dense factors the Jacobian every iteration; sparse factors the
#: static network once and costs about the same per iteration at any size.
#: Purely linear circuits in that band run sparse at 0.84-0.91x of dense
#: speed (``benchmarks/bench_sparse.py`` records both)
SPARSE_THRESHOLD = 70

#: row-wise relative residual bound of a sparse Newton iteration's
#: port-rank solve, |A x - rhs| <= PORT_SOLVE_RTOL (rowsum|A| max|x| + |rhs|);
#: an update past it is redone by factoring the whole system.  The port
#: rows' residual is measured against it; the other rows' residual, some
#: eps (max|y| + max|t|), passes it when the update cancels less than
#: PORT_SOLVE_RTOL / eps (~450) in x = y - t (see
#: :meth:`SparseBackend._port_solve`)
PORT_SOLVE_RTOL = 1e-13

_EPS = float(np.finfo(float).eps)

#: the backend names accepted by options/specs (``None`` means ``"auto"``)
BACKEND_NAMES = ("auto", "dense", "sparse")


def _lu_solve(lu_and_piv, rhs: np.ndarray) -> np.ndarray:
    """Solve with ``getrf``'s factors through raw LAPACK ``getrs``.

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

    The assembler drives the backend through three hooks:

    * :meth:`assemble_static` — stamp the static elements plus the
      :data:`GMIN` diagonal into the run's
      :class:`~repro.perf.mna.SharedStaticContext` (a corner group's
      earlier run may have captured it already, and then this is skipped).
    * :meth:`iterate` — run the dynamic (nonlinear) stamps around ``x``
      on top of the static parts; returns the matrix token that
      :meth:`solve` accepts.  The dense RHS is managed by the assembler.
    * :meth:`solve` — solve ``A x = rhs``, reusing the context's static
      factors whenever the Jacobian is known constant.

    The static matrix and its factors live in the context alone; a backend
    reads them there and keeps no copy.

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
        self.static = assembler.static
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
    def assemble_static(self, ctx) -> None:
        raise NotImplementedError

    # -- per-iteration assembly and solves --------------------------------
    def iterate(self, x, ctx, rhs):
        """Dynamic re-stamp around ``x`` into a fresh system; returns the token."""
        raise NotImplementedError

    def solve(self, A, rhs) -> np.ndarray:
        raise NotImplementedError


class DenseBackend(LinearSolverBackend):
    """Today's dense-LAPACK path: preallocated arrays, ``dgesv``, cached LU.

    Purely linear circuits are LU-factored exactly once per transient and
    every further step reuses the factors (``stats["cached_solves"]``); a
    singular static matrix is found once, and every step then solves it by
    least squares.  Nonlinear circuits re-stamp only the dynamic elements
    on an ``np.copyto`` of the static parts and solve with raw LAPACK
    ``gesv`` (bit-identical to ``np.linalg.solve`` minus the wrapper
    overhead).
    """

    name = "dense"

    def __init__(self, assembler: "FastPathAssembler"):
        super().__init__(assembler)
        n = self.compiled.n_unknowns
        self._A = np.zeros((n, n))
        self._A_solve = np.zeros((n, n))  # scratch clobbered by in-place LAPACK

    # -- static assembly ---------------------------------------------------
    def assemble_static(self, ctx) -> None:
        n = self.compiled.n_unknowns
        A = np.zeros((n, n))
        for element in self.static_elements:
            # Element banks scatter their whole COO triplet block with one
            # np.add.at inside their stamp_static (the target is an ndarray).
            element.stamp_static(A, ctx)
        diag = self.compiled.node_diagonal
        A[diag, diag] += GMIN
        self.static.A_static = A

    # -- per-iteration assembly and solves --------------------------------
    def iterate(self, x, ctx, rhs):
        A = self._A
        np.copyto(A, self.static.A_static)
        for stamp in self.dynamic_fns:
            stamp(A, rhs, x, ctx)
        return A

    def solve(self, A, rhs) -> np.ndarray:
        static = self.static
        injected_singular = _faults.PLAN is not None and self._check_injected_faults()
        if self.linear_only:
            lu = None
            if injected_singular:
                # Treat exactly like a factorization that came back
                # singular: drop the cached factors and divert to the dense
                # re-solve below.  ``dgesv`` is ``getrf``+``getrs``, the
                # cached path's factorization and solve, so the recovered
                # step is bit-identical to it.
                static.lu = None
                self._note_singular_fallback(
                    "injected singular factorization; dense re-solve",
                    injected=True,
                )
            elif static.lu is not None:
                # Factored by an earlier step, or by an earlier run of the
                # corner group.
                lu = static.lu
                self.stats["cached_solves"] += 1
            elif (lu := static.factors()) is not None:
                self.stats["factorizations"] += 1
            else:  # singular: factored once, and each solve says so
                self._note_singular_fallback(static.factor_error)
                self.stats["dense_solves"] += 1
                return np.linalg.lstsq(A, rhs, rcond=None)[0]
            if lu is not None:
                x = _lu_solve(lu, rhs)
                if np.all(np.isfinite(x)):
                    return x
                # Singular / ill-posed system: fall through to the robust path.
                static.lu = None
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

    The static matrix is ``splu``-factored once per run, or once per sweep
    corner group, in the run's context.  For a purely linear
    circuit that is the whole system.  A Newton transient's system differs
    from it only in the ``p`` unknowns its dynamic stamps touch (the ports:
    ``near`` and ``far`` on the RBF link), so each iteration is solved as a
    rank-``p`` (Woodbury) update of the static factors, with
    ``Z = A_static⁻¹ E`` computed once per dynamic pattern
    (``stats["port_solves"]`` counts these iterations).  An update that
    fails its guard (the residual bound :data:`PORT_SOLVE_RTOL`, checked
    at the ``p`` port rows and bounded a priori on the others), or a
    static matrix ``splu`` cannot factor, takes the per-iteration ``splu``
    of the whole system instead.  So does every iteration of a pattern
    with a port whose static row holds nothing but the :data:`GMIN` diagonal:
    the update would lose its digits there, fail the guard and be redone.
    The matrix of every iteration is filled all the same: the injected
    ``singular`` fallback and the whole-system path solve it.
    """

    name = "sparse"

    def __init__(self, assembler: "FastPathAssembler"):
        super().__init__(assembler)
        self.stats.setdefault("sparse_factorizations", 0)
        self.stats.setdefault("symbolic_factorizations", 0)
        self.stats.setdefault("pattern_reuses", 0)
        if not self.linear_only:
            self.stats.setdefault("port_solves", 0)
        self._n = self.compiled.n_unknowns
        # cached pattern: CSC indices/indptr, static base data, and each
        # dynamic position's (CSC data index, flat index in the port block)
        self._indices: np.ndarray | None = None
        self._indptr: np.ndarray | None = None
        self._static_base: np.ndarray | None = None
        self._pos_of: dict[tuple[int, int], tuple[int, int]] = {}
        self._dyn_keys: set[tuple[int, int]] = set()
        self._data: np.ndarray | None = None
        self._csc = None
        # port-rank update: the unknowns the dynamic stamps touch, their
        # summed stamps this iteration (p x p), Z = A_static^-1 E, W = Z[ports]
        self._ports = np.zeros(0, dtype=np.intp)
        self._port_block = np.zeros((0, 0))
        self._block_flat = self._port_block.reshape(-1)
        self._Z: np.ndarray | None = None
        self._W: np.ndarray | None = None
        self._Z_colmax: np.ndarray | None = None
        self._eye: np.ndarray | None = None
        #: row sums of |A_static| at the ports (the guard's scale there)
        self._port_row_abs: np.ndarray | None = None
        #: a port's static row is the GMIN diagonal alone: skip the update
        self._gmin_held_port = False

    # -- static assembly ---------------------------------------------------
    def assemble_static(self, ctx) -> None:
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
        rows = np.concatenate(
            [np.asarray(recorder.rows, dtype=np.int64), *bank_rows,
             diag.astype(np.int64)]
        )
        cols = np.concatenate(
            [np.asarray(recorder.cols, dtype=np.int64), *bank_cols,
             diag.astype(np.int64)]
        )
        vals = np.concatenate(
            [np.asarray(recorder.vals, dtype=np.float64), *bank_vals,
             np.full(diag.size, GMIN)]
        )
        # Compress to CSC, duplicates summed in stamp order.  For a linear
        # run this pattern is the whole system's.
        indices, indptr, positions = self._compress_pattern(rows, cols)
        base = np.zeros(indices.size)
        np.add.at(base, positions, vals)
        csc = _csc_matrix((base, indices, indptr), shape=(self._n, self._n))
        if self.linear_only:
            self.stats["symbolic_factorizations"] += 1
        self.static.sparse_state = (rows, cols, vals, csc)

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
        static_rows, static_cols, static_vals, _ = self.static.sparse_state
        dyn = np.asarray(sorted(self._dyn_keys), dtype=np.int64).reshape(-1, 2)
        rows = np.concatenate([static_rows, dyn[:, 0]])
        cols = np.concatenate([static_cols, dyn[:, 1]])
        indices, indptr, positions = self._compress_pattern(rows, cols)
        self._indices = indices
        self._indptr = indptr
        n_static = static_rows.size
        self._static_base = np.zeros(indices.size)
        np.add.at(self._static_base, positions[:n_static], static_vals)
        ports = np.unique(dyn)
        self._port_row_abs = np.bincount(
            indices, weights=np.abs(self._static_base), minlength=self._n
        )[ports]
        self._gmin_held_port = bool((self._port_row_abs <= GMIN).any())
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

    def _static_factors(self):
        """The context's ``splu`` factors of the static matrix.

        ``None`` when ``splu`` could not factor it.  A factorization this
        call makes is counted in the run's stats as well as the context's.
        """
        lu = self.static.lu
        if lu is None and (lu := self.static.factors()) is not None:
            self.stats["factorizations"] += 1
            self.stats["sparse_factorizations"] += 1
        return lu

    def _port_solve(self, rhs):
        """Solve ``A x = rhs`` as a port-rank update of the static factors.

        With ``A = A_static + E D Eᵀ`` (``E`` selects the ports, ``D`` is
        this iteration's port block), ``y = A_static⁻¹ rhs`` and
        ``Z = A_static⁻¹ E``: the port unknowns solve the ``p x p`` system
        ``(I + Z[ports] D) x_ports = y[ports]`` and ``x = y - t`` with
        ``t = Z D x_ports``.

        The guard asks ``|A x - rhs| <= PORT_SOLVE_RTOL (rowsum|A| max|x|
        + |rhs|)`` row by row, at port cost.  In exact arithmetic
        ``A x - rhs`` is ``D (x[ports] - x_ports)`` on the port rows and
        zero elsewhere, so:

        * the port rows measure it, with ``rowsum|A_static| + rowsum|D|``
          for ``rowsum|A|``.  It is the ``p x p`` solve's own residual,
          where an ill-conditioned ``I + Z[ports] D`` loses its digits even
          when ``y - t`` cancels little;
        * the other rows hold only rounding, the backward error of the
          SuperLU solves for ``y`` and ``Z`` plus the rounding of
          ``y - t``, some ``eps (max|y| + max|t|) rowsum|A|``.  They pass
          when ``eps (max|y| + max|t|) <= PORT_SOLVE_RTOL max|x|``, with
          ``max|t|`` bounded by the column maxima of ``|Z|`` (exact for
          ``p = 1``).

        Returns ``None`` when there are no static factors, the ``p x p``
        system is singular or either half fails (a port node held only by
        :data:`GMIN`, where the update would always fail, never gets here:
        :meth:`solve` skips it).  With no ports, ``x = y`` is what
        factoring the whole system would give, and only its finiteness is
        checked, as there.
        """
        lu = self._static_factors()
        if lu is None:  # the run factors its whole system every iteration
            return None
        x = lu.solve(rhs)
        ports, block = self._ports, self._port_block
        if not ports.size:  # A is the static matrix: x is what splu(A) gives
            return x if np.isfinite(x).all() else None
        if self._Z is None:
            columns = np.zeros((self._n, ports.size))
            columns[ports, np.arange(ports.size)] = 1.0
            self._Z = lu.solve(columns)
            self._W = self._Z[ports]
            self._Z_colmax = np.abs(self._Z).max(axis=0)
            self._eye = np.eye(ports.size)
        _, _, x_ports, info = _dgesv(self._eye + self._W @ block, x[ports])
        if info:
            return None
        d = block @ x_ports
        y_max = np.abs(x).max()
        x -= self._Z @ d
        x_max = np.abs(x).max()
        if ports.size == 1:
            # One port (an RBF driver on an RC-loaded line): Python floats
            # cost a fraction of the p-sized array calls below.
            b, port = block.item(), ports.item()
            t_max = self._Z_colmax.item() * abs(d.item())
            residual = abs(b * (x.item(port) - x_ports.item()))
            scale = (self._port_row_abs.item() + abs(b)) * x_max + abs(rhs.item(port))
            ports_pass = residual <= PORT_SOLVE_RTOL * scale
        else:
            t_max = self._Z_colmax @ np.abs(d)
            residual = np.abs(block @ (x[ports] - x_ports))
            scale = (self._port_row_abs + np.abs(block).sum(axis=1)) * x_max \
                + np.abs(rhs[ports])
            ports_pass = (residual <= PORT_SOLVE_RTOL * scale).all()
        # The other rows' a-priori bound; a non-finite x fails it too.
        if not (ports_pass and _EPS * (y_max + t_max) <= PORT_SOLVE_RTOL * x_max < np.inf):
            return None
        return x

    def solve(self, A, rhs) -> np.ndarray:
        static = self.static
        injected_singular = _faults.PLAN is not None and self._check_injected_faults()
        if injected_singular:
            # As if splu had reported the system singular: drop any cached
            # factors and divert to the dense robust fallback below.
            lu = None
            static.lu = None
            self._Z = None
            self._note_singular_fallback(
                "injected singular sparse factorization; dense fallback",
                injected=True,
            )
        elif self.linear_only:
            # A is the static matrix.
            if static.lu is not None:
                self.stats["cached_solves"] += 1
            lu = self._static_factors()
            if lu is None:  # structurally/numerically singular
                self._note_singular_fallback(
                    static.factor_error or "splu factorization failed; dense fallback",
                )
        else:
            x = None if self._gmin_held_port else self._port_solve(rhs)
            if x is not None:
                self.stats["port_solves"] += 1
                return x
            # A GMIN-held port, no static factors, or an update that failed
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
                static.lu = None
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
