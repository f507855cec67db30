"""Batched execution of transient scenario sweeps.

Scenarios with equal corner values share one
:class:`~repro.perf.mna.SharedStaticContext`: the static matrix is stamped
once per corner group and, for purely linear circuits, LU-factored exactly
once for the whole group.  On that sharing the engine runs two kinds of
scenario:

* **lane sets** — the *direct* scenarios (members of a corner group whose
  circuits are all linear and of one topology) step together as one array
  state per circuit topology (:class:`~repro.sweep.lanes.LaneSet`), across
  corner groups, in blocks of steps bounded by the shortest line delay:
  per block one vectorised pass writes the source values and line
  histories, and another the lines' waves; per step the companion lanes
  stamp, each corner group makes one multi-right-hand-side ``LU x = B``
  block solve over its live columns, and the companion lanes accept;
* **standalone runs** — every other scenario (RBF links, the linear
  members of a mixed corner group, everything on the ``fast=False``
  reference path) then steps to its end through its own solver's
  :meth:`~repro.circuits.transient.TransientSolver.step_once`, on its
  corner group's shared context, exactly as a standalone run would.

Batched and sequential waveforms therefore agree to ~1e-12 relative
(``tests/test_sweep.py`` pins this).  A lane is advanced by one exact
block solve per step, so its recorded ``newton_iterations`` is 1 per step,
not the damped-update/confirming-re-solve count a standalone run reports —
iteration counts are solver bookkeeping, and the waveforms are the
contract.  A scenario that fails in the batch is quarantined (a lane
leaves its group's block solves from the failing step on) and gets one
cold solo retry after the batch; only that retry runs the options'
``retry_policy``.
"""

from __future__ import annotations

import dataclasses
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
from repro.sweep.lanes import LaneSet, topology_key
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
        Time step and span shared by every scenario (lane sets step their
        scenarios together, and the result has one time axis).
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

    # -- batched run -------------------------------------------------------
    def run(self) -> SweepResult:
        """Run the whole batch through one shared engine context."""
        start = _time.perf_counter()
        fast = perf.resolve_fast(self.options.fast)
        # A failure in the batch quarantines its scenario: the retry ladder
        # runs only in the solo retry, which keeps the full options.
        options = dataclasses.replace(self.options, retry_policy=None)

        contexts: Dict[object, SharedStaticContext] = {}
        solvers: list[TransientSolver] = []
        for scenario in self.scenarios:
            shared = None
            if fast:
                shared = contexts.setdefault(scenario.static_key(), SharedStaticContext())
            solvers.append(
                TransientSolver(
                    self.builder(scenario), self.dt, options=options,
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

        # Direct groups: shared static contexts whose members are all purely
        # linear and of one topology, advanced by one block solve per step.
        # Their scenarios step as the lanes of one LaneSet per topology; a
        # group's lanes are contiguous, in scenario order.
        #: (context, scenario indices, lane set, first lane) per direct group
        direct: list[tuple[SharedStaticContext, list[int], LaneSet, int]] = []
        lane_sets: list[LaneSet] = []
        #: direct scenario index -> (its lane set, its lane)
        lane_of: Dict[int, tuple[LaneSet, int]] = {}
        if fast:
            members: Dict[SharedStaticContext, list[int]] = defaultdict(list)
            for idx, run in enumerate(runs):
                members[run.assembler._shared].append(idx)
            groups = []
            lanes_order: Dict[tuple, list[int]] = defaultdict(list)
            for ctx, idxs in members.items():
                if not all(runs[i].assembler.linear_only for i in idxs):
                    continue
                keys = {topology_key(runs[i]) for i in idxs}
                if len(keys) == 1:
                    groups.append((ctx, idxs))
                    lanes_order[keys.pop()].extend(idxs)
            for order in lanes_order.values():
                lane_sets.append(LaneSet([runs[i] for i in order]))
                lane_of.update((i, (lane_sets[-1], col)) for col, i in enumerate(order))
            direct = [(ctx, idxs, *lane_of[idxs[0]]) for ctx, idxs in groups]

        # Every counter is present in both modes (zeroed on the reference
        # path) so reports can read them unconditionally.
        stats = {
            "mode": "fast" if fast else "reference",
            "n_scenarios": len(self.scenarios),
            "static_groups": len(contexts) if fast else 0,
            "direct_linear_scenarios": sorted(self.scenarios[i].name for i in lane_of),
            "lane_sets": len(lane_sets),
            "shared_factorizations": 0,
            "static_reuses": 0,
            "block_solves": 0,
            "symbolic_factorizations": 0,
        }

        #: quarantined scenario index -> failure that evicted it from the batch
        failed: Dict[int, SolveFailure] = {}

        def quarantine(i: int, step: int, kind: str, message: str, **context) -> None:
            run = runs[i]
            run.step = step  # lanes do not advance their runs' step counters
            failed[i] = solvers[i]._record_failure(run, kind, message, **context)

        def handle_nonconverged(i: int, step: int) -> None:
            # An injected non-convergence follows the same on_nonconvergence
            # policy as a standalone run: strict default quarantines the
            # lane, warn/ignore commit with telemetry.
            if self.options.on_nonconvergence == "raise":
                quarantine(i, step, NON_CONVERGENCE, "injected non-convergence",
                           injected=True)
                return
            solver = solvers[i]
            solver.health.record(SolveFailure(
                NON_CONVERGENCE, step=step, scenario=self.scenarios[i].name,
                message="injected non-convergence",
            ))
            solver.health.nonconverged_commits += 1
            if self.options.on_nonconvergence == "warn":
                warnings.warn(
                    f"sweep scenario {self.scenarios[i].name!r} committed "
                    f"step {step} without convergence",
                    RuntimeWarning,
                    stacklevel=3,
                )

        def solve_groups(step: int) -> None:
            for ctx, idxs, lanes, first in direct:
                # A group solves exactly its live lanes, in scenario order.
                live = [i for i in idxs if i not in failed] if failed else idxs
                if not live:
                    continue
                cols = (slice(first, first + len(idxs)) if len(live) == len(idxs)
                        else [lane_of[i][1] for i in live])
                try:
                    solution = ctx.solve_block(lanes.rhs[:, cols])
                except np.linalg.LinAlgError as exc:
                    for i in live:
                        quarantine(i, step, SINGULAR_MATRIX,
                                   str(exc) or "singular block solve",
                                   site="solve_block")
                    continue
                except RuntimeError as exc:
                    for i in live:
                        quarantine(i, step, BACKEND_ERROR,
                                   str(exc) or type(exc).__name__,
                                   site="solve_block",
                                   exception=type(exc).__name__)
                    continue
                # solve_block has checked its solution finite, unless its
                # least-squares fallback produced it.
                if _faults.PLAN is None and not ctx.fell_back:
                    lanes.x[:, cols] = solution
                    continue
                finite = np.isfinite(solution).all(axis=0)
                kept = []
                for col, i in enumerate(live):
                    name = self.scenarios[i].name
                    if (_faults.PLAN is not None and _faults.take("nan", step, name)) \
                            or not finite[col]:
                        quarantine(i, step, NAN_INF,
                                   "non-finite block-solve solution",
                                   site="solve_block")
                        continue
                    if _faults.PLAN is not None and _faults.take(
                        "nonconvergence", step, name
                    ):
                        handle_nonconverged(i, step)
                        if i in failed:
                            continue
                    kept.append(col)
                lanes.x[:, [lane_of[live[col]][1] for col in kept]] = solution[:, kept]

        # Lane sets step in blocks: a block ends before its first step that
        # reads a line wave accepted inside it (last_read never decreases),
        # so the sources and line histories of a whole block are written
        # before its steps, and the lines' waves after them.
        if lane_sets:
            last_read = np.max([lanes.last_read for lanes in lane_sets], axis=0)
            block_start = 1
            while block_start <= n_steps:
                block_stop = int(np.searchsorted(last_read, block_start))
                for lanes in lane_sets:
                    lanes.begin_block(block_start, block_stop)
                for step in range(block_start, block_stop):
                    for lanes in lane_sets:
                        lanes.stamp(step)
                    solve_groups(step)
                    for lanes in lane_sets:
                        lanes.accept(step)
                for lanes in lane_sets:
                    lanes.end_block(block_start, block_stop)
                block_start = block_stop

        # Every other scenario steps to its end as a standalone run would,
        # on its corner group's shared static context.
        for i, (solver, run) in enumerate(zip(solvers, runs)):
            if i in lane_of:
                continue
            try:
                for _ in range(n_steps):
                    solver.step_once(run)
            except SolverError as exc:
                failed[i] = exc.failure

        results: Dict[str, object] = {}
        status: Dict[str, str] = {}
        failures_out: Dict[str, dict] = {}
        for i, (scenario, solver, run) in enumerate(zip(self.scenarios, solvers, runs)):
            if i in failed:
                solver._sync_health()  # failed runs never reach finish()
                continue
            if i in lane_of:
                lanes, col = lane_of[i]
                lanes.finish(col, run)
            results[scenario.name] = solver.finish(run)
            status[scenario.name] = "ok"

        # Quarantined scenarios get one solo retry outside the batch, with
        # the full options: a transient fault (consumed injection, poisoned
        # shared state) completes cleanly; a persistent one yields its
        # structured failure in the partial result.
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
