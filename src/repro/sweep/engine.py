"""Lockstep batched execution of transient scenario sweeps.

The engine advances every scenario of a sweep through the *same* time step
together, which is what unlocks the sharing:

* **static MNA assembly and LU factorization** — scenarios with equal
  corner values share one :class:`~repro.perf.mna.SharedStaticContext`;
  the static matrix is stamped once and, for purely linear circuits,
  LU-factored exactly once for the whole batch;
* **linear block solves** — all linear scenarios of a static group are
  advanced with one multi-right-hand-side ``LU x = B`` solve per time step
  instead of one Newton loop with per-scenario solves each.

Each nonlinear scenario still executes exactly the Newton iterations it
would run standalone — the batch changes where the arithmetic happens, not
what is computed — so batched and sequential waveforms agree to ~1e-12
relative (``tests/test_sweep.py`` pins this).  Purely linear scenarios are
advanced by one exact block solve per step: their waveforms are likewise
equivalent, but their recorded ``newton_iterations`` is 1 per step, not
the damped-update/confirming-re-solve count a standalone run reports —
iteration counts are solver bookkeeping, and the waveforms are the
contract.
"""

from __future__ import annotations

import time as _time
import warnings
from collections import defaultdict
from typing import Callable, Dict, Iterable, Optional, Sequence

import numpy as np

from repro import perf
from repro.circuits.netlist import Circuit
from repro.circuits.transient import TransientOptions, TransientSolver
from repro.perf.mna import SharedStaticContext
from repro.resilience import (
    BACKEND_ERROR,
    NAN_INF,
    NON_CONVERGENCE,
    SINGULAR_MATRIX,
    RunHealth,
    SolveFailure,
    SolverError,
)
from repro.resilience import faults as _faults
from repro.sweep.result import SweepResult
from repro.sweep.scenario import Scenario

__all__ = ["CircuitSweep"]


class CircuitSweep:
    """A batch of transient scenarios over one parametrised circuit.

    Parameters
    ----------
    builder:
        ``builder(scenario) -> Circuit``; must return a fresh circuit per
        call.  Scenarios sharing a :meth:`~repro.sweep.scenario.Scenario.static_key`
        must produce identical static stamps (see :mod:`repro.sweep.scenario`).
    scenarios:
        The scenarios to run (unique names).
    dt, duration:
        Common time step and span; lockstep batching requires them equal
        across the batch.
    record_nodes, record_branches:
        Forwarded to :meth:`repro.circuits.transient.TransientSolver.begin`.
    options:
        Transient solver options shared by every scenario (including the
        linear-solver ``backend`` of the fast MNA path).
    initial_voltages:
        Optional ``initial_voltages(scenario) -> dict | None`` hook.
    """

    def __init__(
        self,
        builder: Callable[[Scenario], Circuit],
        scenarios: Sequence[Scenario],
        dt: float,
        duration: float,
        record_nodes: Optional[Iterable[str]] = None,
        record_branches: Optional[Sequence[tuple[str, int]]] = None,
        options: TransientOptions | None = None,
        initial_voltages: Optional[Callable[[Scenario], Optional[Dict[str, float]]]] = None,
    ):
        scenarios = list(scenarios)
        if not scenarios:
            raise ValueError("a sweep needs at least one scenario")
        names = [sc.name for sc in scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario names must be unique, got {names}")
        self.builder = builder
        self.scenarios = scenarios
        self.dt = float(dt)
        self.duration = float(duration)
        self.record_nodes = list(record_nodes) if record_nodes is not None else None
        self.record_branches = list(record_branches) if record_branches is not None else None
        self.options = options or TransientOptions()
        self.initial_voltages = initial_voltages

    # -- sequential oracle -------------------------------------------------
    def _solo_run(self, scenario: Scenario):
        """Run one scenario standalone; ``(solver, result | None, failure | None)``.

        A typed :class:`~repro.resilience.SolverError` is caught and
        returned as its structured failure record — fault isolation means
        one scenario's failure never aborts the rest of the sweep.
        """
        solver = TransientSolver(
            self.builder(scenario), self.dt, options=self.options,
            label=scenario.name,
        )
        iv = self.initial_voltages(scenario) if self.initial_voltages else None
        try:
            result = solver.run(
                self.duration,
                record_nodes=self.record_nodes,
                record_branches=self.record_branches,
                initial_voltages=iv,
            )
        except SolverError as exc:
            return solver, None, exc.failure
        return solver, result, None

    def run_sequential(self) -> SweepResult:
        """Run every scenario as an independent cold transient (no sharing).

        This is the equivalence oracle and the timing baseline the batched
        path is measured against: each scenario pays its own compile,
        assembly, factorization and per-step solves.  Scenarios are fault
        isolated: a failing scenario is reported in the partial result's
        ``status``/``failures`` instead of aborting the sweep.
        """
        start = _time.perf_counter()
        results: Dict[str, object] = {}
        status: Dict[str, str] = {}
        failures: Dict[str, dict] = {}
        health = RunHealth()
        times = None
        for scenario in self.scenarios:
            solver, result, failure = self._solo_run(scenario)
            health.merge(solver.health)
            if failure is not None:
                status[scenario.name] = "failed"
                failures[scenario.name] = failure.to_dict()
                continue
            results[scenario.name] = result
            status[scenario.name] = "ok"
            times = result.times
        return SweepResult(
            times=times,
            scenarios=self.scenarios,
            results=results,
            perf_stats={
                "mode": "sequential",
                "n_scenarios": len(self.scenarios),
                "health": health.to_dict(),
            },
            wall_time=_time.perf_counter() - start,
            status=status,
            failures=failures,
        )

    # -- batched lockstep run ----------------------------------------------
    def run(self) -> SweepResult:
        """Run the whole batch through one shared engine context."""
        start = _time.perf_counter()
        fast = perf.resolve_fast(self.options.fast)

        contexts: Dict[object, SharedStaticContext] = {}
        solvers: list[TransientSolver] = []
        for scenario in self.scenarios:
            shared = None
            if fast:
                shared = contexts.setdefault(scenario.static_key(), SharedStaticContext())
            solvers.append(
                TransientSolver(
                    self.builder(scenario), self.dt, options=self.options,
                    shared_static=shared, label=scenario.name,
                )
            )

        runs = []
        for scenario, solver in zip(self.scenarios, solvers):
            iv = self.initial_voltages(scenario) if self.initial_voltages else None
            runs.append(
                solver.begin(
                    self.duration,
                    record_nodes=self.record_nodes,
                    record_branches=self.record_branches,
                    initial_voltages=iv,
                )
            )
        n_steps = runs[0].n_steps
        if any(run.n_steps != n_steps for run in runs):
            raise ValueError("lockstep sweep requires an equal step count per scenario")

        # Scenarios advanced by one block solve per step: the members of a
        # shared static context that are all purely linear.
        direct: list[tuple[SharedStaticContext, list[int]]] = []
        newton_indices = list(range(len(runs)))
        if fast:
            members: Dict[SharedStaticContext, list[int]] = defaultdict(list)
            for idx, run in enumerate(runs):
                members[run.assembler._shared].append(idx)
            for ctx, idxs in members.items():
                if all(runs[i].assembler.linear_only for i in idxs):
                    direct.append((ctx, idxs))
            direct_set = {i for _, idxs in direct for i in idxs}
            newton_indices = [i for i in range(len(runs)) if i not in direct_set]

        # Every counter is present in both modes (zeroed on the reference
        # path) so reports can read them unconditionally.
        stats = {
            "mode": "fast" if fast else "reference",
            "n_scenarios": len(self.scenarios),
            "static_groups": len(contexts) if fast else 0,
            "direct_linear_scenarios": sorted(
                self.scenarios[i].name for _, idxs in direct for i in idxs
            ),
            "shared_factorizations": 0,
            "static_reuses": 0,
            "block_solves": 0,
            "symbolic_factorizations": 0,
        }

        cap = self.options.max_newton_iterations
        rhs_blocks = [
            np.empty((runs[idxs[0]].x.size, len(idxs))) for _, idxs in direct
        ]
        #: quarantined scenario index -> failure that evicted it from the batch
        failed: Dict[int, SolveFailure] = {}

        def quarantine(i: int, kind: str, message: str, **context) -> None:
            run = runs[i]
            run.step_converged = False
            failed[i] = solvers[i]._record_failure(run, kind, message, **context)

        def handle_nonconverged(i: int, injected: bool) -> None:
            # An exhausted (or fault-forced) Newton loop follows the same
            # on_nonconvergence policy as a standalone run: strict default
            # quarantines the scenario, warn/ignore commit with telemetry.
            run = runs[i]
            if self.options.on_nonconvergence == "raise":
                context = {"injected": True} if injected else {"iterations": run.newton_count}
                quarantine(
                    i, NON_CONVERGENCE,
                    "injected non-convergence" if injected
                    else f"Newton cap of {cap} iterations hit",
                    **context,
                )
                return
            solver, run = solvers[i], runs[i]
            solver.health.record(SolveFailure(
                NON_CONVERGENCE, step=run.step, scenario=self.scenarios[i].name,
                residual=run.last_residual,
                message="injected non-convergence" if injected
                else f"Newton cap of {cap} iterations hit",
            ))
            solver.health.nonconverged_commits += 1
            run.step_converged = True  # commit per policy
            if self.options.on_nonconvergence == "warn":
                warnings.warn(
                    f"sweep scenario {self.scenarios[i].name!r} committed "
                    f"step {run.step} without convergence",
                    RuntimeWarning,
                    stacklevel=3,
                )

        for step in range(n_steps):
            for i, (solver, run) in enumerate(zip(solvers, runs)):
                if i not in failed:
                    solver.begin_step(run)

            for (ctx, idxs), rhs_block in zip(direct, rhs_blocks):
                live = [i for i in idxs if i not in failed]
                if not live:
                    continue
                block = rhs_block[:, : len(live)]
                for col, i in enumerate(live):
                    block[:, col] = runs[i].assembler.rhs_static
                try:
                    solution = ctx.solve_block(block)
                except np.linalg.LinAlgError as exc:
                    for i in live:
                        quarantine(i, SINGULAR_MATRIX,
                                   str(exc) or "singular block solve",
                                   site="solve_block")
                    continue
                except RuntimeError as exc:
                    for i in live:
                        quarantine(i, BACKEND_ERROR,
                                   str(exc) or type(exc).__name__,
                                   site="solve_block",
                                   exception=type(exc).__name__)
                    continue
                for col, i in enumerate(live):
                    run = runs[i]
                    name = self.scenarios[i].name
                    column = solution[:, col]
                    if _faults.PLAN is not None and _faults.take("nan", run.step, name):
                        column = np.full_like(column, np.nan)
                    if not np.all(np.isfinite(column)):
                        quarantine(i, NAN_INF,
                                   "non-finite block-solve solution",
                                   site="solve_block")
                        continue
                    if _faults.PLAN is not None and _faults.take(
                        "nonconvergence", run.step, name
                    ):
                        handle_nonconverged(i, injected=True)
                        if i in failed:
                            continue
                    run.x = np.ascontiguousarray(column)
                    run.newton_count = 1
                    run.step_converged = True

            active = {i for i in newton_indices if i not in failed}
            # Forced non-convergence faults are consumed once per step
            # attempt, matching the standalone solver's semantics.
            forced: set[int] = set()
            if _faults.PLAN is not None:
                for i in tuple(active):
                    if _faults.take("nonconvergence", runs[i].step,
                                    self.scenarios[i].name):
                        forced.add(i)
            while active:
                for i in tuple(active):
                    solver, run = solvers[i], runs[i]
                    try:
                        solver.newton_iteration(run)
                    except np.linalg.LinAlgError as exc:
                        active.discard(i)
                        quarantine(i, SINGULAR_MATRIX,
                                   str(exc) or "singular matrix",
                                   site="newton_iteration")
                        continue
                    except RuntimeError as exc:
                        active.discard(i)
                        quarantine(i, BACKEND_ERROR,
                                   str(exc) or type(exc).__name__,
                                   site="newton_iteration",
                                   exception=type(exc).__name__)
                        continue
                    if run.failure is not None:
                        # newton_iteration already recorded it (NaN guard)
                        active.discard(i)
                        failed[i] = run.failure
                        continue
                    if run.step_converged or run.newton_count >= cap:
                        active.discard(i)
                        if i in forced or not run.step_converged:
                            handle_nonconverged(i, injected=i in forced)

            for i, (solver, run) in enumerate(zip(solvers, runs)):
                if i not in failed:
                    solver.end_step(run)

        results: Dict[str, object] = {}
        status: Dict[str, str] = {}
        failures_out: Dict[str, dict] = {}
        for i, (scenario, solver, run) in enumerate(zip(self.scenarios, solvers, runs)):
            if i in failed:
                solver._sync_health()  # failed runs never reach finish()
                continue
            results[scenario.name] = solver.finish(run)
            status[scenario.name] = "ok"

        # Quarantined scenarios get one solo retry outside the lockstep
        # batch: a transient fault (consumed injection, poisoned shared
        # state) completes cleanly; a persistent one yields its structured
        # failure in the partial result.
        solo_solvers: list[TransientSolver] = []
        for i in sorted(failed):
            scenario = self.scenarios[i]
            solo_solver, result, failure = self._solo_run(scenario)
            solo_solvers.append(solo_solver)
            if result is not None:
                results[scenario.name] = result
                status[scenario.name] = "recovered"
            else:
                status[scenario.name] = "failed"
                failures_out[scenario.name] = failure.to_dict()
        if fast:
            stats["shared_factorizations"] = sum(
                ctx.stats["factorizations"] for ctx in contexts.values()
            )
            stats["static_reuses"] = sum(
                ctx.stats["static_reuses"] for ctx in contexts.values()
            )
            stats["block_solves"] = sum(
                ctx.stats["block_solves"] for ctx in contexts.values()
            )
            # Symbolic setups summed over every solver that ran, including
            # solo retries (their cold re-runs pay real setup).
            stats["symbolic_factorizations"] = sum(
                int(solver.perf_stats.get("symbolic_factorizations", 0))
                for solver in (*solvers, *solo_solvers)
            )
            stats["per_scenario"] = {
                scenario.name: solver.perf_stats
                for scenario, solver in zip(self.scenarios, solvers)
            }
        health = RunHealth()
        for solver in solvers:
            health.merge(solver.health)
        for ctx in contexts.values():
            health.merge(ctx.health)
        for solver in solo_solvers:
            health.merge(solver.health)
        stats["health"] = health.to_dict()
        stats["quarantined_scenarios"] = sorted(
            self.scenarios[i].name for i in failed
        )
        stats["solo_retries"] = len(solo_solvers)
        return SweepResult(
            times=runs[0].times,
            scenarios=self.scenarios,
            results=results,
            perf_stats=stats,
            wall_time=_time.perf_counter() - start,
            status=status,
            failures=failures_out,
        )
