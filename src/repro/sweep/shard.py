"""Horizontal sweep sharding: corner-group-aware multi-process execution.

The sweep engine (:mod:`repro.sweep.engine`) batches every scenario of
a sweep in one process.  This module is the distribution layer above it:
a scenario batch is partitioned into *shards*, each shard runs the
ordinary single-process sweep engine in a worker process, and the
per-shard :class:`~repro.sweep.result.SweepResult`\\ s are merged back —
deterministically, in input scenario order — into one result that is
waveform-bit-identical to the unsharded run.

Corner groups are atomic
------------------------
The unit of partitioning is the *corner group* (scenarios sharing a
:meth:`~repro.sweep.scenario.Scenario.static_key`), never the scenario:

* splitting a group across shards would re-assemble and re-factorize its
  static matrix once per shard, breaking the one-factorization-per-group
  invariant the sweep engine exists for;
* it would also change the column count of the multi-RHS block solves,
  which changes the floating-point result at the last bit.  Keeping
  groups whole keeps the sharded waveforms **bit-identical** to the
  single-process engine (pinned by ``tests/test_shard.py``).

A sweep therefore shards at most as wide as it has corner groups: a
single-corner sweep runs in one shard regardless of the worker count.

A linear sweep starts a pool only when it pays
-----------------------------------------------
A linear-family sweep steps as lane sets, whose per-step cost is mostly
fixed: every shard repeats it, and saves only its share of the corner
groups' block solves.  So a linear sweep runs in process, as one shard,
unless :func:`linear_pool_pays` predicts that the pool saves more than
it costs.  RBF (Newton) sweeps shard whenever asked.  The decision reads
only the spec's shape, so it never changes a bit of the output.

Work units are specs
--------------------
Each shard is shipped to its worker as the JSON form of a
:class:`~repro.api.spec.SimulationSpec` holding just that shard's
scenarios (specs are frozen and JSON-round-trip exactly, so the worker
rebuilds the engine from data — the same property that makes specs
cacheable and remote-shippable).  Workers execute through
:func:`repro.api.run`, so per-shard behaviour (fast path, resilience
policy, fault plans via ``REPRO_FAULT_PLAN``) is exactly the
single-process behaviour.

Entry points: :func:`plan_shards` (the pure partitioner),
:func:`linear_pool_pays` (the cost model), :func:`run_sharded` (fan out
+ merge), :func:`merge_shard_results` (the deterministic merge,
unit-testable without a pool).  The job API routes ``engine.workers`` /
``engine.shards`` here (CLI: ``--workers``); the ``REPRO_SWEEP_WORKERS``
environment variable sets the default worker count when a spec leaves
``engine.workers`` null.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sys
import threading
import time as _time
from typing import Dict, List, Optional, Sequence

from repro.resilience import RunHealth
from repro.sweep.result import SweepResult

__all__ = [
    "SWEEP_WORKERS_ENV",
    "LANE_GROUP_STEP_S",
    "POOL_ROUND_S",
    "ShardPlan",
    "default_workers",
    "resolve_worker_count",
    "plan_shards",
    "linear_pool_pays",
    "merge_shard_results",
    "run_sharded",
]

#: environment variable providing the default sweep worker count
SWEEP_WORKERS_ENV = "REPRO_SWEEP_WORKERS"


def default_workers() -> int:
    """The worker count used when ``engine.workers`` is null.

    Reads ``REPRO_SWEEP_WORKERS`` (default ``1`` — sharding is opt-in);
    a malformed or non-positive value fails fast instead of constructing
    a broken pool.
    """
    raw = os.environ.get("REPRO_SWEEP_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{SWEEP_WORKERS_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(
            f"{SWEEP_WORKERS_ENV} must be at least 1, got {value}"
        )
    return value


def resolve_worker_count(workers: Optional[int]) -> int:
    """An explicit ``engine.workers`` value, or the environment default."""
    if workers is None:
        return default_workers()
    if workers < 1:
        raise ValueError(f"engine.workers must be at least 1, got {workers}")
    return workers


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of scenario indices into shards.

    Attributes
    ----------
    shards:
        Tuple of shards; each shard is a tuple of scenario indices in
        input order.  Shards are ordered by their first scenario index.
    n_groups:
        Number of distinct corner (static-sharing) groups in the batch.
    """

    shards: tuple
    n_groups: int

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def owner_of(self) -> Dict[int, int]:
        """Mapping scenario index -> owning shard index."""
        return {
            index: shard_index
            for shard_index, shard in enumerate(self.shards)
            for index in shard
        }


def plan_shards(scenarios: Sequence, n_shards: int) -> ShardPlan:
    """Partition scenarios into at most ``n_shards`` corner-group-atomic shards.

    Scenarios are grouped by :meth:`~repro.sweep.scenario.Scenario.static_key`;
    whole groups are then packed onto shards largest-first, each group
    going to the currently lightest shard (ties to the lowest shard
    index), so shard loads stay balanced without ever splitting a group.
    The plan is a pure function of the scenario order and keys — equal
    inputs shard equally on every machine.
    """
    if n_shards < 1:
        raise ValueError(f"shard count must be at least 1, got {n_shards}")
    groups: Dict[object, List[int]] = {}
    for index, scenario in enumerate(scenarios):
        groups.setdefault(scenario.static_key(), []).append(index)
    group_list = list(groups.values())  # first-seen order
    n_shards = min(n_shards, len(group_list))
    loads = [0] * n_shards
    members: List[List[int]] = [[] for _ in range(n_shards)]
    # Largest group first; stable tie-break on first appearance.
    for group in sorted(group_list, key=lambda g: (-len(g), g[0])):
        target = min(range(n_shards), key=lambda k: (loads[k], k))
        members[target].extend(group)
        loads[target] += len(group)
    shards = sorted((tuple(sorted(m)) for m in members), key=lambda s: s[0])
    return ShardPlan(shards=tuple(shards), n_groups=len(group_list))


# ---------------------------------------------------------------------------
# when a linear sweep's pool pays
# ---------------------------------------------------------------------------

#: in-process cost of one corner group's block solve per step of a lane
#: set (s): the only per-step work a shard of a linear sweep takes off
#: the others.  Fitted with :data:`POOL_ROUND_S`; the derivation is in
#: ``docs/operations.md`` ("Sharding").
LANE_GROUP_STEP_S = 2.4e-6

#: cost of one pool round of a linear sweep (s): forking the workers,
#: encoding and decoding the payloads, the setup every shard repeats and
#: the transfer of the results back
POOL_ROUND_S = 28e-3


def linear_pool_pays(n_groups: int, n_steps: int, n_shards: int) -> bool:
    """Whether sharding a linear sweep saves more than its pool costs.

    The predicted saving is ``n_groups x n_steps x LANE_GROUP_STEP_S x
    (1 - 1/k)``, where ``k = min(n_shards, os.cpu_count())`` shards run
    at once; the pool pays when it exceeds :data:`POOL_ROUND_S`.  One
    shard, or one core, never pays.  Lanes do not enter: the per-lane
    work a shard saves, it pays back in result transfer.
    """
    k = min(n_shards, os.cpu_count() or 1)
    saving = n_groups * n_steps * LANE_GROUP_STEP_S * (1.0 - 1.0 / k)
    return saving > POOL_ROUND_S


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _solve_shard(payload: str) -> SweepResult:
    """Worker entry point: rebuild the sweep from its spec JSON and run it.

    Executes through :func:`repro.api.run` so the shard honours every
    per-job knob (fast path, resilience policy, option gating) exactly
    like a standalone submission; returns the native
    :class:`~repro.sweep.result.SweepResult` for the merge.
    """
    from repro.api import run, spec_from_dict

    spec = spec_from_dict(json.loads(payload))
    return run(spec).raw


def _mp_context():
    """Fork when it is safe (single-threaded process), else spawn.

    Forking a multi-threaded process can deadlock on locks held by other
    threads, so those callers get the spawn context.  CLI/test processes
    and the service's solver processes are single-threaded and keep
    fork's fast start.
    """
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return mp.get_context("fork")
    return mp.get_context("spawn")


#: ``prctl`` option naming the signal a process gets when its parent dies
_PR_SET_PDEATHSIG = 1


def _die_with_parent(parent_pid: int) -> None:
    """Pool-worker initializer: end this process when its parent dies.

    A pool worker blocked on its call queue never sees EOF once its parent
    is gone, because its siblings still hold the pipe, so it would outlive
    a killed parent.  On Linux ``prctl(PR_SET_PDEATHSIG)`` sends SIGKILL
    when the thread that started the worker exits; elsewhere this is a
    no-op.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent_pid:  # the parent died before prctl took effect
        os._exit(1)


def _run_pool(payloads: Sequence[str], workers: int) -> List[SweepResult]:
    """Execute shard payloads over a process pool; results in shard order.

    Futures complete in whatever order the machine schedules them; the
    results are slotted back by shard index, so completion order never
    influences the merge.
    """
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

    results: List[Optional[SweepResult]] = [None] * len(payloads)
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_mp_context(),
        initializer=_die_with_parent, initargs=(os.getpid(),),
    ) as pool:
        futures = {
            pool.submit(_solve_shard, payload): index
            for index, payload in enumerate(payloads)
        }
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        failed = next((f for f in done if f.exception() is not None), None)
        if failed is not None:
            for future in pending:
                future.cancel()
            raise failed.exception()
        for future in done:
            results[futures[future]] = future.result()
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# the deterministic merge
# ---------------------------------------------------------------------------

#: engine counters summed across shards (disjoint scenario sets)
_SUM_KEYS = (
    "static_groups",
    "shared_factorizations",
    "static_reuses",
    "block_solves",
    "solo_retries",
    "symbolic_factorizations",
    "lane_sets",
)

#: sorted-name lists unioned across shards
_LIST_KEYS = ("direct_linear_scenarios", "quarantined_scenarios")


def _merge_parts(
    owned: Sequence[tuple],
    parts: Sequence[SweepResult],
    wall_time: float,
    carry: Sequence[str] = (),
) -> SweepResult:
    """One :class:`SweepResult` from the results of disjoint scenario batches.

    ``owned`` lists ``(scenario, part)`` pairs in output order, ``part``
    being the one of ``parts`` that ran the scenario.  Per-scenario
    ``results`` / ``status`` / ``failures`` are reassembled in that order,
    engine counters are summed, the name lists unioned and sorted, health
    telemetry re-merged through :class:`~repro.resilience.RunHealth`, and
    the first time axis kept.  ``carry`` names stats copied from the first
    part.
    """
    results: Dict[str, object] = {}
    status: Dict[str, str] = {}
    failures: Dict[str, dict] = {}
    for scenario, part in owned:
        name = scenario.name
        if name in part.results:
            results[name] = part.results[name]
        status[name] = part.status_of(name)
        if name in part.failures:
            failures[name] = part.failures[name]

    stats: dict = {
        "mode": parts[0].perf_stats.get("mode", "fast"),
        "n_scenarios": len(owned),
    }
    for key in _SUM_KEYS:
        stats[key] = sum(int(part.perf_stats.get(key, 0)) for part in parts)
    for key in _LIST_KEYS:
        merged: List[str] = []
        for part in parts:
            merged.extend(part.perf_stats.get(key, []))
        stats[key] = sorted(merged)
    per_scenario: dict = {}
    for part in parts:
        per_scenario.update(part.perf_stats.get("per_scenario", {}))
    if per_scenario:
        stats["per_scenario"] = per_scenario
    for key in carry:
        if key in parts[0].perf_stats:
            stats[key] = parts[0].perf_stats[key]

    health = RunHealth()
    for part in parts:
        part_health = part.perf_stats.get("health")
        if part_health:
            health.merge(RunHealth.from_dict(part_health))
    stats["health"] = health.to_dict()

    return SweepResult(
        times=next((part.times for part in parts if part.times is not None), None),
        scenarios=[scenario for scenario, _ in owned],
        results=results,
        perf_stats=stats,
        wall_time=wall_time,
        status=status,
        failures=failures,
    )


def merge_shard_results(
    scenarios: Sequence,
    plan: ShardPlan,
    shard_results: Sequence[SweepResult],
    workers: int = 1,
    elapsed: float = 0.0,
) -> SweepResult:
    """Fold per-shard results into one :class:`SweepResult`, input order.

    ``shard_results`` is indexed by shard (``plan.shards``); the order the
    shards *completed* in is irrelevant.  Per-scenario ``results`` /
    ``status`` / ``failures`` are reassembled in input scenario order,
    engine counters are summed, per-shard health telemetry is re-merged
    through :class:`~repro.resilience.RunHealth`, and the shard layer adds
    its own counters: ``shards``, ``workers``, ``shard_stats`` (scenario
    names, corner groups and factorizations per shard) and the wall-clock
    ``parallel_efficiency`` of the pool, null for a one-shard plan (it ran
    in process, with no pool to be efficient).
    """
    if len(shard_results) != plan.n_shards:
        raise ValueError(
            f"expected {plan.n_shards} shard results, got {len(shard_results)}"
        )
    owner = plan.owner_of()
    busy = sum(part.wall_time for part in shard_results)
    merged = _merge_parts(
        [(scenario, shard_results[owner[index]])
         for index, scenario in enumerate(scenarios)],
        shard_results,
        wall_time=elapsed if elapsed > 0 else busy,
    )

    # Pool utilisation relative to the parallelism actually available:
    # per-shard wall times summed, over the elapsed span times the number
    # of lanes (bounded by workers, shards AND physical cores — an
    # 8-worker pool on a 2-core box has 2 lanes, not 8).  Capped at 1.0
    # because a shard's wall time includes CPU-wait when the box is
    # oversubscribed.
    effective = max(1, min(workers, plan.n_shards, os.cpu_count() or 1))
    stats = merged.perf_stats
    stats["shards"] = plan.n_shards
    stats["workers"] = workers
    stats["corner_groups"] = plan.n_groups
    stats["shard_stats"] = [
        {
            "scenarios": [scenarios[i].name for i in shard],
            "static_groups": int(part.perf_stats.get("static_groups", 0)),
            "shared_factorizations": int(
                part.perf_stats.get("shared_factorizations", 0)
            ),
            "symbolic_factorizations": int(
                part.perf_stats.get("symbolic_factorizations", 0)
            ),
            "wall_time": part.wall_time,
        }
        for shard, part in zip(plan.shards, shard_results)
    ]
    stats["parallel_efficiency"] = (
        round(min(1.0, busy / (effective * elapsed)), 4)
        if elapsed > 0 and plan.n_shards > 1 else None
    )
    return merged


# ---------------------------------------------------------------------------
# fan out + merge
# ---------------------------------------------------------------------------

def _sub_spec(spec, indices: Sequence[int]):
    """The shard's work unit: the same spec holding only its scenarios.

    The engine block pins ``workers=1`` / ``shards=None`` so a worker
    never re-shards recursively (and ignores any ``REPRO_SWEEP_WORKERS``
    default in its own environment).
    """
    return dataclasses.replace(
        spec,
        scenarios=tuple(spec.scenarios[i] for i in indices),
        engine=dataclasses.replace(spec.engine, workers=1, shards=None),
    )


def run_sharded(
    spec,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    models=None,
) -> SweepResult:
    """Run a sweep spec sharded over a process pool and merge the results.

    Parameters
    ----------
    spec:
        A validated ``kind="sweep"`` :class:`~repro.api.spec.SimulationSpec`.
    workers:
        Worker process count; ``None`` reads ``spec.engine.workers`` and
        then the ``REPRO_SWEEP_WORKERS`` default.
    shards:
        Shard count; ``None`` reads ``spec.engine.shards`` and defaults
        to the worker count.  Always capped by the number of corner
        groups (groups are never split — see the module docstring), and
        cut to one for a linear sweep whose pool would not pay
        (:func:`linear_pool_pays`).
    models:
        Used only when the plan has one shard and runs in process.  Worker
        processes resolve their devices from ``spec.devices`` (the spec is
        the source of truth for a serialised work unit) through the
        process memo, which a forked worker inherits from this process;
        an in-process override cannot be shipped.

    Returns
    -------
    SweepResult
        Waveform-bit-identical to the single-process sweep engine,
        with shard telemetry in ``perf_stats`` (``shards``, ``workers``,
        ``shard_stats``, ``parallel_efficiency``, null without a pool).
    """
    if spec.kind != "sweep":
        raise ValueError(f"run_sharded needs a sweep spec, got kind={spec.kind!r}")
    workers = resolve_worker_count(
        workers if workers is not None else spec.engine.workers
    )
    if shards is None:
        shards = spec.engine.shards if spec.engine.shards is not None else workers
    if shards < 1:
        raise ValueError(f"engine.shards must be at least 1, got {shards}")

    runtime = [sc.to_scenario() for sc in spec.scenarios]
    plan = plan_shards(runtime, shards)
    if spec.engine.sweep_family == "linear":
        from repro.api.spec import DEFAULT_DT

        dt = spec.engine.dt if spec.engine.dt is not None else DEFAULT_DT
        if not linear_pool_pays(plan.n_groups, int(round(spec.duration / dt)), plan.n_shards):
            plan = plan_shards(runtime, 1)
    start = _time.perf_counter()
    if plan.n_shards == 1:
        # Nothing to distribute (single corner group, shards=1, or a linear
        # sweep whose pool would not pay): run the sweep engine in-process,
        # but keep the shard telemetry shape.
        from repro.api.engines import build_sweep

        shard_results = [build_sweep(_sub_spec(spec, plan.shards[0]), models=models)[0].run()]
    else:
        payloads = [
            json.dumps(_sub_spec(spec, shard).to_dict()) for shard in plan.shards
        ]
        shard_results = _run_pool(payloads, min(workers, plan.n_shards))
    elapsed = _time.perf_counter() - start
    return merge_shard_results(
        runtime, plan, shard_results, workers=workers, elapsed=elapsed
    )
