"""Newton-Raphson transient solver for the circuit substrate.

The solver advances the Modified Nodal Analysis system with a fixed time
step.  At every step the nonlinear elements (diodes, MOSFETs, RBF
macromodels) are iterated to convergence by rebuilding their Norton
companion stamps around the current candidate solution; dynamic elements
use trapezoidal companion models.  A small conductance
(:data:`~repro.perf.backends.GMIN`) from every node to ground keeps the
Jacobian well-conditioned for nodes that would otherwise float (e.g.
MOSFET gates).  The Newton settings are the module constants below; what
a caller sets is :class:`TransientOptions`.

Two assembly paths are provided.  The reference path re-stamps every
element into freshly zeroed arrays at every Newton iteration — simple,
and kept as the correctness oracle.  The fast path (default, see
:mod:`repro.perf.mna`) assembles the constant linear part once per run,
the x-independent RHS once per step, re-stamps only the nonlinear
elements per iteration, and reuses a cached LU factorization whenever the
Jacobian is unchanged — a purely linear circuit is factorised exactly once
for the whole transient.  Both paths agree to machine precision
(``tests/test_perf_fastpath.py``).
"""

from __future__ import annotations

import copy
import dataclasses
import time as _time
import warnings
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro import perf
from repro.circuits.elements import StampContext
from repro.circuits.netlist import Circuit, CompiledCircuit, GROUND
from repro.core.ports import check_port_step
from repro.perf.backends import BACKEND_NAMES, GMIN
# The module, not its names: importing repro.perf.mna first imports this
# package, and so this module, before mna has defined them.
from repro.perf import mna
from repro.resilience import (
    BACKEND_ERROR,
    NAN_INF,
    NON_CONVERGENCE,
    SINGULAR_MATRIX,
    RunHealth,
    SolveFailure,
    error_for,
)
from repro.resilience import faults as _faults

__all__ = ["TransientOptions", "CircuitResult", "TransientRun", "TransientSolver"]

#: accepted values of ``TransientOptions.on_nonconvergence``
NONCONVERGENCE_POLICIES = ("raise", "warn", "ignore")

#: Newton iteration cap per time step (and per retry sub-step)
MAX_NEWTON_ITERATIONS = 100
#: convergence threshold on node-voltage updates (volts)
ABSTOL_V = 1e-9
#: convergence threshold on branch-current updates (amperes)
ABSTOL_I = 1e-12
#: per-iteration cap on node-voltage updates (simple damping for the
#: exponential devices)
MAX_DELTA_V = 1.0
#: factor each retry from the second on applies to the update cap
DAMPING_BOOST = 0.5


@dataclasses.dataclass(frozen=True)
class TransientOptions:
    """What a caller sets of the transient solver.

    The fields mirror a job's engine block (``engine.fast``,
    ``engine.on_nonconvergence``, ``engine.max_retries``) plus the
    backend pin of the sparse benchmark.

    Attributes
    ----------
    fast:
        Use the fast assembly path of :mod:`repro.perf.mna`.  ``None``
        (default) follows :func:`repro.perf.fastpath_default`; ``False``
        selects the naive reference path.
    backend:
        Linear-solver backend of the fast path (see
        :mod:`repro.perf.backends`): ``"dense"``, ``"sparse"``, or
        ``None``/``"auto"`` to pick dense at paper scale and sparse above
        :data:`~repro.perf.backends.SPARSE_THRESHOLD` unknowns.  Ignored
        by the reference path.
    on_nonconvergence:
        What to do when a step exhausts its Newton iterations (after any
        retries): ``"raise"`` (default) raises a typed
        :class:`~repro.resilience.NonConvergenceError`; ``"warn"`` emits a
        :class:`RuntimeWarning`, records the failure in the run's health
        telemetry and commits the step; ``"ignore"`` commits silently apart
        from the health record.  The historical silent-commit behaviour is
        therefore opt-in only.
    max_retries:
        Retries of a failing step before ``on_nonconvergence`` applies
        (0, the default, disables retrying).  The first retry rewinds the
        step and re-runs it unchanged, which clears a transient fault
        bit-identically.  Each later retry multiplies the update cap by
        :data:`DAMPING_BOOST` and, when every element supports a local
        step, advances the interval in ``2, 4, ...`` sub-steps through the
        reference assembly; otherwise it re-runs the step again.
    """

    fast: bool | None = None
    backend: str | None = None
    on_nonconvergence: str = "raise"
    max_retries: int = 0

    def __post_init__(self):
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES} (or None), got {self.backend!r}"
            )
        if self.on_nonconvergence not in NONCONVERGENCE_POLICIES:
            raise ValueError(
                f"on_nonconvergence must be one of {NONCONVERGENCE_POLICIES}, "
                f"got {self.on_nonconvergence!r}"
            )
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be a non-negative int, got {self.max_retries!r}"
            )


@dataclasses.dataclass
class CircuitResult:
    """Result of a transient circuit run.

    Attributes
    ----------
    times:
        Time axis (including ``t = 0``).
    node_voltages:
        Mapping node name -> waveform.
    branch_currents:
        Mapping ``"element_name[k]"`` -> waveform for every extra branch
        current unknown.
    newton_iterations:
        Per-step Newton iteration counts.
    wall_time:
        Wall-clock duration of the run in seconds.
    """

    times: np.ndarray
    node_voltages: Dict[str, np.ndarray]
    branch_currents: Dict[str, np.ndarray]
    newton_iterations: np.ndarray
    wall_time: float = 0.0

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of a node voltage (ground returns zeros)."""
        if node == GROUND:
            return np.zeros_like(self.times)
        if node not in self.node_voltages:
            raise KeyError(
                f"node {node!r} was not recorded; available: {sorted(self.node_voltages)}"
            )
        return self.node_voltages[node]

    def branch_current(self, element_name: str, k: int = 0) -> np.ndarray:
        """Waveform of the ``k``-th branch current of an element."""
        key = f"{element_name}[{k}]"
        if key not in self.branch_currents:
            raise KeyError(
                f"branch current {key!r} was not recorded; "
                f"available: {sorted(self.branch_currents)}"
            )
        return self.branch_currents[key]


class TransientRun:
    """Mutable state of one transient run (see :meth:`TransientSolver.begin`).

    A run advances one time step per :meth:`TransientSolver.step_once`
    call, so the whole stepping state lives here rather than in local
    variables of a monolithic loop.  :meth:`TransientSolver.run` begins
    one run and steps it to its end; the scenario-sweep engine
    (:mod:`repro.sweep`) begins every scenario's run before stepping any,
    so that corner groups share their static assembly.  (Its purely linear
    scenarios step together as lane sets, :mod:`repro.sweep.lanes`, and
    only hand their samples back to :meth:`TransientSolver.finish`.)
    """

    __slots__ = (
        "times", "n_steps", "step", "t", "x", "ctx", "assembler",
        "rec_idx", "recorded", "iterations", "record_nodes", "branch_keys",
        "stateful", "newton_count", "step_converged", "start_time",
        # resilience state (see TransientSolver.step_once)
        "failure", "damping_scale", "substep_committed", "last_residual",
    )

    def __init__(self):
        self.step = 0
        self.t = 0.0
        self.ctx: StampContext | None = None
        self.newton_count = 0
        self.step_converged = False
        #: structured record of the failure that aborted the current attempt
        self.failure: SolveFailure | None = None
        #: multiplier on MAX_DELTA_V, tightened by retry damping boosts
        self.damping_scale = 1.0
        #: the retry ladder committed this step through sub-steps already
        self.substep_committed = False
        #: last observed max node-voltage update (residual of failure records)
        self.last_residual: float | None = None


class TransientSolver:
    """Fixed-step Newton-Raphson transient solver."""

    def __init__(
        self,
        circuit: Circuit,
        dt: float,
        options: TransientOptions | None = None,
        shared_static: mna.SharedStaticContext | None = None,
        label: str | None = None,
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.circuit = circuit
        self.dt = float(dt)
        for element in circuit.elements:
            # A macromodel element's port is resampled for one step.
            port = getattr(element, "port", None)
            if port is not None:
                check_port_step(port, self.dt, f"circuit element {element.name!r}")
        self.options = options or TransientOptions()
        self.compiled: CompiledCircuit = circuit.compile()
        self.fast = perf.resolve_fast(self.options.fast)
        #: optional static-stamp/LU cache shared with other runs of a sweep
        self.shared_static = shared_static
        #: scenario label attached to failure records (sweep members set it)
        self.label = label
        #: health telemetry of this solver's runs (``perf_stats["health"]``)
        self.health = RunHealth()
        #: assembly/solve counters of the last run (fast path only)
        self.perf_stats: dict = {"mode": "fast" if self.fast else "reference"}
        # Newton-update scratch (allocation-free convergence checks).
        n = self.compiled.n_unknowns
        self._delta = np.empty(n)
        self._delta_abs = np.empty(n)
        self._dabs_v = self._delta_abs[: self.compiled.n_nodes]
        self._dabs_i = self._delta_abs[self.compiled.n_nodes :]

    # -- assembly ---------------------------------------------------------
    def _assemble(self, x: np.ndarray, ctx: StampContext) -> tuple[np.ndarray, np.ndarray]:
        """The reference path's dense system around ``x`` at the step of ``ctx``."""
        n = self.compiled.n_unknowns
        A = np.zeros((n, n))
        rhs = np.zeros(n)
        for element in self.circuit.elements:
            element.stamp(A, rhs, x, ctx)
        # GMIN from every node to ground (vectorised diagonal stamp)
        diag = self.compiled.node_diagonal
        A[diag, diag] += GMIN
        return A, rhs

    # -- session API ------------------------------------------------------
    # A run decomposes into begin() -> step_once()* -> finish(), and a step
    # into begin_step -> newton_iteration* -> end_step.  run() drives one
    # circuit to completion; the sweep engine (repro.sweep) begins many runs
    # on shared static contexts and then steps each of them to its end.

    def begin(
        self,
        duration: float,
        record_nodes: Optional[Iterable[str]] = None,
        record_branches: Optional[Sequence[tuple[str, int]]] = None,
        initial_voltages: Optional[Dict[str, float]] = None,
    ) -> TransientRun:
        """Reset the circuit and set up the state of a new transient run."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        run = TransientRun()
        run.start_time = _time.perf_counter()
        self.health = RunHealth()  # fresh telemetry per run
        compiled = self.compiled
        run.n_steps = int(round(duration / self.dt))
        run.times = self.dt * np.arange(run.n_steps + 1)

        for element in self.circuit.elements:
            element.reset()

        run.assembler = None
        if self.fast:
            run.assembler = mna.FastPathAssembler(
                self.circuit, compiled, self.dt, shared=self.shared_static,
                backend=self.options.backend, health=self.health,
            )
            run.assembler.begin_run()
            self.perf_stats = run.assembler.stats
        else:
            self.perf_stats = {"mode": "reference", "accept_calls": 0}

        x = np.zeros(compiled.n_unknowns)
        if initial_voltages:
            for node, value in initial_voltages.items():
                idx = compiled.index_of(node)
                if idx is not None:
                    x[idx] = value
        run.x = x

        if record_nodes is None:
            record_nodes = list(compiled.node_index)
        run.record_nodes = [n for n in record_nodes if n != GROUND]
        if record_branches is None:
            record_branches = [
                (name, k)
                for name, offset in compiled.branch_offset.items()
                for k in range(
                    next(
                        el.n_branch_currents
                        for el in self.circuit.elements
                        if el.name == name
                    )
                )
            ]

        # One gather per step into a preallocated table instead of per-signal
        # python loops with dict lookups.
        run.branch_keys = [f"{name}[{k}]" for name, k in record_branches]
        run.rec_idx = np.array(
            [compiled.index_of(n) for n in run.record_nodes]
            + [compiled.branch_index(name, k) for name, k in record_branches],
            dtype=np.intp,
        )
        run.recorded = np.zeros((run.n_steps + 1, run.rec_idx.size))
        run.iterations = np.zeros(run.n_steps + 1, dtype=int)

        # Only stateful elements (explicit ``needs_accept`` flag) take a
        # per-step accept call, on both paths.
        run.stateful = [el for el in self.circuit.elements if el.needs_accept]

        if run.rec_idx.size:
            np.take(x, run.rec_idx, out=run.recorded[0])
        return run

    def begin_step(self, run: TransientRun) -> None:
        """Open the next time step (per-step static RHS, fresh Newton state)."""
        run.step += 1
        # Python-float time: every downstream scalar use (source waveforms,
        # stamp contexts, memo keys) is faster than with a numpy scalar, and
        # the value is identical.  run.x is never mutated in place by the
        # Newton iteration (each update rebinds a fresh array), so the
        # previous step's solution needs no defensive copy.
        run.t = float(run.times[run.step])
        run.newton_count = 0
        run.step_converged = False
        run.failure = None
        run.damping_scale = 1.0
        run.substep_committed = False
        run.last_residual = None
        # Published with or without a fault plan: backend and shared-context
        # health events read the step from it.
        _faults.set_context(self.label, run.step)
        self._open_step(run)

    def _open_step(self, run: TransientRun) -> None:
        """The step context of ``run.t`` (and the fast path's per-step RHS)."""
        if run.assembler is not None:
            run.ctx = run.assembler.begin_step(run.t)
        else:
            run.ctx = StampContext(self.compiled, self.dt, run.t)

    def newton_iteration(self, run: TransientRun) -> bool:
        """One Newton iteration around ``run.x``; True when converged.

        A non-finite candidate solution never replaces ``run.x``: the
        iteration records a :data:`~repro.resilience.NAN_INF` failure in
        ``run.failure`` and returns, leaving the last finite iterate in
        place for the retry ladder to rewind from.
        """
        n_nodes = self.compiled.n_nodes
        x = run.x
        if run.assembler is not None:
            A, rhs = run.assembler.iterate(x, run.ctx)
            x_new = run.assembler.solve(A, rhs)
        else:
            A, rhs = self._assemble(x, run.ctx)
            if _faults.PLAN is not None and _faults.take("backend_error"):
                raise _faults.InjectedBackendError("injected backend error")
            try:
                if _faults.PLAN is not None and _faults.take("singular"):
                    raise np.linalg.LinAlgError("injected singular matrix")
                x_new = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                x_new = np.linalg.lstsq(A, rhs, rcond=None)[0]
                self.health.note_backend_fallback(SolveFailure(
                    SINGULAR_MATRIX, step=run.step, scenario=self.label,
                    message="dense solve singular; least-squares fallback",
                    context={"site": "reference_path"},
                ))
        run.newton_count += 1
        if _faults.PLAN is not None and _faults.take("nan"):
            x_new = np.full_like(x_new, np.nan)
        if not np.all(np.isfinite(x_new)):
            run.step_converged = False
            run.failure = self.health.record(SolveFailure(
                NAN_INF, step=run.step, scenario=self.label,
                residual=run.last_residual,
                message="non-finite Newton candidate solution",
                context={"iteration": run.newton_count},
            ))
            return False
        delta = np.subtract(x_new, x, out=self._delta)
        np.abs(delta, out=self._delta_abs)
        # damp node-voltage updates (retries tighten the cap via damping_scale)
        dv_max = self._dabs_v.max() if n_nodes else 0.0
        run.last_residual = dv_max
        cap = MAX_DELTA_V * run.damping_scale
        if dv_max > cap:
            run.x = x + delta * (cap / dv_max)
            return False
        run.x = x_new
        v_ok = dv_max < ABSTOL_V
        i_ok = self._dabs_i.size == 0 or self._dabs_i.max() < ABSTOL_I
        run.step_converged = v_ok and i_ok
        return run.step_converged

    def end_step(self, run: TransientRun) -> None:
        """Commit the converged step: element accepts and sample recording."""
        run.iterations[run.step] = run.newton_count
        if run.substep_committed:
            # The retry ladder already advanced the element state to run.t
            # through its sub-steps; a second accept would double-commit.
            run.substep_committed = False
        else:
            for element in run.stateful:
                element.accept(run.x, run.ctx)
            self.perf_stats["accept_calls"] += len(run.stateful)
        if run.rec_idx.size:
            np.take(run.x, run.rec_idx, out=run.recorded[run.step])

    # -- failure handling and retries -------------------------------------
    def _record_failure(self, run: TransientRun, kind: str, message: str,
                        **context) -> SolveFailure:
        failure = self.health.record(SolveFailure(
            kind, step=run.step, scenario=self.label,
            residual=run.last_residual, message=message, context=context,
        ))
        run.failure = failure
        return failure

    def _newton_loop(self, run: TransientRun) -> None:
        """Iterate the open step to convergence, classifying every failure.

        On exit either ``run.step_converged`` is True, or ``run.failure``
        holds the structured record of what stopped the attempt.
        """
        run.failure = None
        forced = _faults.PLAN is not None and _faults.take(
            "nonconvergence", run.step, self.label
        )
        while not run.step_converged and run.newton_count < MAX_NEWTON_ITERATIONS:
            try:
                self.newton_iteration(run)
            except np.linalg.LinAlgError as exc:
                run.step_converged = False
                self._record_failure(run, SINGULAR_MATRIX,
                                     str(exc) or "singular matrix",
                                     site="newton_iteration")
                return
            except RuntimeError as exc:
                run.step_converged = False
                self._record_failure(run, BACKEND_ERROR,
                                     str(exc) or type(exc).__name__,
                                     site="newton_iteration",
                                     exception=type(exc).__name__)
                return
            if run.failure is not None:
                return
        if forced:
            run.step_converged = False
            self._record_failure(run, NON_CONVERGENCE,
                                 "injected non-convergence", injected=True)
        elif not run.step_converged:
            self._record_failure(
                run, NON_CONVERGENCE,
                f"Newton cap of {MAX_NEWTON_ITERATIONS} iterations hit",
                iterations=run.newton_count,
            )

    def _rewind(self, run: TransientRun, x_prev: np.ndarray) -> None:
        """Reset the open step's Newton state to re-attempt it.

        Element state is untouched (accepts only happen in
        :meth:`end_step`), so rebinding ``run.x`` and re-opening the step
        restores the exact state the step opened with.
        """
        run.x = x_prev
        run.newton_count = 0
        run.step_converged = False
        run.failure = None
        self._open_step(run)

    def _supports_local_dt(self) -> bool:
        return all(getattr(el, "supports_local_dt", True)
                   for el in self.circuit.elements)

    def _substep_interval(self, run: TransientRun, x_prev: np.ndarray,
                          n_sub: int) -> bool:
        """Advance the open step's interval in ``n_sub`` dense sub-steps.

        The robust degradation rung of the retry ladder: the reference
        path's dense assembly (:meth:`_assemble`, banks included — their
        stamps honour ``ctx.dt``), Newton per sub-step, element accepts per
        sub-step.  On success the element state is already committed at
        ``run.t`` and ``run.substep_committed`` tells :meth:`end_step` to
        skip its accepts.  On any sub-step failure the element state is
        restored from a snapshot and the attempt reports False.
        """
        n_nodes = self.compiled.n_nodes
        stateful = run.stateful
        snapshot = [copy.deepcopy(el.__dict__) for el in stateful]
        self.health.dt_halvings += 1
        sub_dt = self.dt / n_sub
        t0 = run.t - self.dt
        x = x_prev
        cap = MAX_DELTA_V * run.damping_scale
        for j in range(1, n_sub + 1):
            ctx = StampContext(self.compiled, sub_dt, t0 + j * sub_dt)
            converged = False
            count = 0
            while count < MAX_NEWTON_ITERATIONS:
                A, rhs = self._assemble(x, ctx)
                try:
                    x_new = np.linalg.solve(A, rhs)
                except np.linalg.LinAlgError:
                    x_new = np.linalg.lstsq(A, rhs, rcond=None)[0]
                count += 1
                if not np.all(np.isfinite(x_new)):
                    break
                delta = x_new - x
                dabs = np.abs(delta)
                dv = dabs[:n_nodes].max() if n_nodes else 0.0
                if dv > cap:
                    x = x + delta * (cap / dv)
                    continue
                x = x_new
                i_tail = dabs[n_nodes:]
                if dv < ABSTOL_V and (i_tail.size == 0 or i_tail.max() < ABSTOL_I):
                    converged = True
                    break
            if not converged:
                for el, snap in zip(stateful, snapshot):
                    el.__dict__.clear()
                    el.__dict__.update(snap)
                return False
            for el in stateful:
                el.accept(x, ctx)
        run.x = x
        run.step_converged = True
        run.failure = None
        run.substep_committed = True
        return True

    def _retry_step(self, run: TransientRun, x_prev: np.ndarray) -> bool:
        """Drive the retry ladder for a failed step; True when recovered.

        Retry 1 rewinds and re-runs the step unchanged — a transient cause
        (a consumed injected fault, an invalidated factorization) recovers
        bit-identically to a clean run.  Later retries tighten the Newton
        damping by :data:`DAMPING_BOOST` and, when every element supports a
        local dt, advance the interval in ``2, 4, ...`` sub-steps through
        the reference assembly; otherwise they re-run the step.
        """
        halving_ok = self._supports_local_dt()
        for attempt in range(1, self.options.max_retries + 1):
            self.health.retries += 1
            if attempt >= 2:
                run.damping_scale *= DAMPING_BOOST
                self.health.damping_boosts += 1
            if attempt >= 2 and halving_ok:
                if self._substep_interval(run, x_prev, 2 ** (attempt - 1)):
                    return True
            else:
                self._rewind(run, x_prev)
                self._newton_loop(run)
                if run.step_converged:
                    return True
        return False

    def _sync_health(self) -> None:
        """Publish the health accumulator into ``perf_stats``."""
        self.perf_stats["health"] = self.health.to_dict()

    def step_once(self, run: TransientRun) -> None:
        """Advance the run by one full time step (Newton to convergence).

        A step that fails (non-convergence, NaN/Inf iterate, singular
        system, backend error) is retried up to ``options.max_retries``
        times; an unrecovered non-convergence then follows
        ``options.on_nonconvergence`` (raise / warn / ignore — never a
        silent commit: the health telemetry records every outcome), and
        any other unrecovered failure raises its typed
        :class:`~repro.resilience.SolverError`.
        """
        opts = self.options
        self.begin_step(run)
        # run.x is rebound (never mutated in place) by the Newton iteration,
        # so holding a reference is enough to rewind the step.
        x_prev = run.x
        self._newton_loop(run)
        if not run.step_converged and opts.max_retries > 0:
            self.health.retried_steps += 1
            if self._retry_step(run, x_prev):
                self.health.recovered_steps += 1
        if not run.step_converged:
            failure = run.failure
            if failure.kind == NON_CONVERGENCE and opts.on_nonconvergence != "raise":
                self.health.nonconverged_commits += 1
                if opts.on_nonconvergence == "warn":
                    warnings.warn(
                        f"transient step committed without convergence: "
                        f"{failure.describe()}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            else:
                self._sync_health()
                raise error_for(failure)
        self.end_step(run)

    def finish(self, run: TransientRun) -> CircuitResult:
        """Package the recorded samples of a completed run."""
        self._sync_health()
        n_rec_nodes = len(run.record_nodes)
        voltages = {
            node: run.recorded[:, k].copy() for k, node in enumerate(run.record_nodes)
        }
        currents = {
            key: run.recorded[:, n_rec_nodes + k].copy()
            for k, key in enumerate(run.branch_keys)
        }
        return CircuitResult(
            times=run.times,
            node_voltages=voltages,
            branch_currents=currents,
            newton_iterations=run.iterations,
            wall_time=_time.perf_counter() - run.start_time,
        )

    # -- public API -------------------------------------------------------
    def run(
        self,
        duration: float,
        record_nodes: Optional[Iterable[str]] = None,
        record_branches: Optional[Sequence[tuple[str, int]]] = None,
        initial_voltages: Optional[Dict[str, float]] = None,
    ) -> CircuitResult:
        """Run a transient of the given duration.

        Parameters
        ----------
        duration:
            Simulated time span (seconds); the number of steps is
            ``round(duration / dt)``.
        record_nodes:
            Node names to record (default: every node).
        record_branches:
            ``(element_name, k)`` pairs of branch currents to record
            (default: every branch unknown).
        initial_voltages:
            Optional initial node voltages (default 0 V everywhere); useful
            for starting from an approximate DC state.
        """
        run = self.begin(
            duration,
            record_nodes=record_nodes,
            record_branches=record_branches,
            initial_voltages=initial_voltages,
        )
        for _ in range(run.n_steps):
            self.step_once(run)
        return self.finish(run)
