"""Sweep-sharding benchmark: scaling curve, pool decision + bit-identity gates.

Measures the distribution layer of :mod:`repro.sweep.shard` where its
pools run.  An RBF corner sweep (>= 8 corner groups, so the
corner-group-atomic planner can actually go 8 wide; RBF sweeps shard
whenever asked) is run once through the single-process engine and then
sharded over 1/2/4/8 worker processes.  A linear leg then runs two
linear corner sweeps at ``workers=2`` against ``workers=1``: one half
as long as the pool's break-even (:func:`repro.sweep.shard.linear_pool_pays`
keeps it in process) and one twice as long (it shards).

Gates (exit 1 on violation):

* **equivalence** — every sharded waveform, scenario status and failure
  record is *bit-identical* to the single-process run, including an RBF
  sweep with one persistently poisoned scenario injected via
  ``REPRO_FAULT_PLAN`` (the quarantine/solo-retry path crosses the
  process boundary intact);
* **corner groups are atomic** — every corner group runs on exactly one
  shard, and the shards cover every group (RBF shards report no shared
  factorizations, so this is their invariant); a sharded linear sweep
  also reports one shared factorization per corner group on every shard;
* **parallel efficiency** — at 8 workers,
  ``T1 / (T8 * min(8, cpu_count))`` must reach ``--min-efficiency``
  (default 0.7).  Efficiency is defined against the parallelism the
  machine actually has: on a 2-core runner 8 workers give 2 lanes, so
  the denominator is 2 — the gate measures sharding overhead, not the
  core count of the CI box;
* **the linear pool decision pays** — on both linear shapes,
  ``speedup_vs_single = T1 / T2`` reaches 0.95: a linear sweep at
  ``workers=2`` is never more than 5% slower than in process.

Writes ``BENCH_shard.json``.  Run as a script:

    PYTHONPATH=src python benchmarks/bench_shard.py

Use ``--quick`` for a CI-sized smoke run (shorter transient, fewer
scenarios; same gates).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.api import EngineOptions, ScenarioSpec, SimulationSpec, run  # noqa: E402
from repro.sweep.shard import LANE_GROUP_STEP_S, POOL_ROUND_S  # noqa: E402

WORKER_COUNTS = (1, 2, 4, 8)

#: the linear leg's corner groups (2 scenarios each) and its lengths, as
#: multiples of the 2-shard break-even
LINEAR_GROUPS = 8
LINEAR_SCALES = (0.5, 2.0)
#: gate: a linear sweep at workers=2 is at most 5% slower than in process
MIN_LINEAR_SPEEDUP = 0.95


def corner_sweep_spec(n_groups: int, per_group: int, duration: float, dt: float,
                      family: str = "rbf") -> SimulationSpec:
    """A corner sweep: ``n_groups`` corner groups x ``per_group`` patterns."""
    scenarios = []
    for g in range(n_groups):
        for k in range(per_group):
            scenarios.append(ScenarioSpec(
                name=f"g{g:02d}s{k}",
                bit_pattern=format((g + k) % 8, "03b") * 2,
                corner={"load_resistance": 300.0 + 25.0 * g},
            ))
    return SimulationSpec(
        kind="sweep",
        duration=duration,
        scenarios=tuple(scenarios),
        engine=EngineOptions(dt=dt, sweep_family=family),
        label="bench-shard",
    )


def with_workers(spec: SimulationSpec, workers: int) -> SimulationSpec:
    return dataclasses.replace(
        spec, engine=dataclasses.replace(spec.engine, workers=workers)
    )


def identical(base, other) -> bool:
    """Bit-identity of two sweep Results: times, every waveform, status, failures."""
    if base.names() != other.names() or not np.array_equal(base.times, other.times):
        return False
    for name in base.names():
        if not np.array_equal(base.waveform(name), other.waveform(name)):
            return False
    return (
        base.raw.status == other.raw.status
        and base.raw.failures == other.raw.failures
    )


def groups_on_one_shard(spec: SimulationSpec, perf: dict) -> bool:
    """Every corner group runs on exactly one shard; the shards cover them all."""
    corner_of = {sc.name: json.dumps(sc.corner, sort_keys=True) for sc in spec.scenarios}
    owners: dict = {}
    for index, shard in enumerate(perf["shard_stats"]):
        for name in shard["scenarios"]:
            owners.setdefault(corner_of[name], set()).add(index)
    return (
        len(owners) == perf["corner_groups"]
        and all(len(shards) == 1 for shards in owners.values())
        and sum(s["static_groups"] for s in perf["shard_stats"]) == perf["corner_groups"]
    )


def factorization_invariant(perf: dict) -> bool:
    """Each linear shard: one factorization per corner group; shards cover all groups."""
    shard_stats = perf.get("shard_stats") or []
    per_shard_ok = all(
        s["shared_factorizations"] == s["static_groups"] for s in shard_stats
    )
    total = sum(s["shared_factorizations"] for s in shard_stats)
    return per_shard_ok and total == perf.get("corner_groups")


def measure(spec: SimulationSpec, trials: int):
    """Best-of-``trials`` wall time and the last Result."""
    best, result = None, None
    for _ in range(trials):
        t0 = time.perf_counter()
        result = run(spec)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def linear_leg(trials: int) -> list:
    """Linear sweeps either side of the 2-shard break-even: workers=2 vs workers=1.

    Alternating runs, best of ``trials`` each.  The lengths follow the
    cost model's constants, so the leg straddles the break-even after
    any re-measurement of them.
    """
    dt = 1e-11
    break_even = POOL_ROUND_S / (LINEAR_GROUPS * LANE_GROUP_STEP_S * 0.5)
    leg = []
    for scale in LINEAR_SCALES:
        steps = int(round(scale * break_even))
        spec = corner_sweep_spec(LINEAR_GROUPS, 2, steps * dt, dt, family="linear")
        pair = {1: spec, 2: with_workers(spec, 2)}
        run(pair[2])  # warm
        best = {1: None, 2: None}
        results = {}
        for _ in range(trials):
            for workers in (2, 1):
                t0 = time.perf_counter()
                results[workers] = run(pair[workers])
                elapsed = time.perf_counter() - t0
                best[workers] = elapsed if best[workers] is None else min(best[workers], elapsed)
        perf = results[2].raw.perf_stats
        entry = {
            "corner_groups": LINEAR_GROUPS,
            "scenarios": len(spec.scenarios),
            "steps": steps,
            "break_even_multiple": scale,
            "single_process_s": round(best[1], 5),
            "workers_2_s": round(best[2], 5),
            "speedup_vs_single": round(best[1] / best[2], 3),
            "shards": perf["shards"],
            "pool_utilisation": perf["parallel_efficiency"],
            "bit_identical": identical(results[1], results[2]),
            "factorization_invariant": factorization_invariant(perf)
            if perf["shards"] > 1 else perf["shared_factorizations"] == LINEAR_GROUPS,
        }
        leg.append(entry)
        print(f"  linear {LINEAR_GROUPS} groups x {steps} steps ({scale}x break-even): "
              f"in process {best[1]*1e3:7.1f} ms, workers=2 {best[2]*1e3:7.1f} ms "
              f"(shards {entry['shards']})  speedup {entry['speedup_vs_single']:.2f}  "
              f"bit-identical {entry['bit_identical']}")
    return leg


def fault_plan_equivalence(spec: SimulationSpec, workers: int) -> dict:
    """Sharded == single-process for a sweep with one poisoned scenario."""
    from repro.resilience import faults

    victim = spec.scenarios[len(spec.scenarios) // 2].name
    plan = f"nan@5x*:scenario={victim}"
    previous = os.environ.get("REPRO_FAULT_PLAN")
    os.environ["REPRO_FAULT_PLAN"] = plan
    faults.reload_env_plan()
    try:
        base = run(spec)
        sharded = run(with_workers(spec, workers))
    finally:
        if previous is None:
            os.environ.pop("REPRO_FAULT_PLAN", None)
        else:
            os.environ["REPRO_FAULT_PLAN"] = previous
        faults.reload_env_plan()
    return {
        "fault_plan": plan,
        "poisoned_scenario": victim,
        "poisoned_status": base.raw.status_of(victim),
        "shards": sharded.raw.perf_stats["shards"],
        "bit_identical": identical(base, sharded),
        "status_identical": base.raw.status == sharded.raw.status,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_shard.json")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run: shorter transient, fewer scenarios")
    parser.add_argument(
        "--min-efficiency", type=float, default=None,
        help="gate: T1 / (T8 * min(8, cpu_count)) at 8 workers (default 0.7; "
        "--quick relaxes to 0.5 because its short transient under-amortises "
        "the per-shard process start-up and shared CI runners are noisy)",
    )
    args = parser.parse_args(argv)
    min_efficiency = args.min_efficiency
    if min_efficiency is None:
        min_efficiency = 0.5 if args.quick else 0.7

    cores = os.cpu_count() or 1
    if args.quick:
        spec = corner_sweep_spec(n_groups=8, per_group=2, duration=4e-9, dt=1e-11)
        trials = min(args.trials, 2)
    else:
        spec = corner_sweep_spec(n_groups=16, per_group=2, duration=4e-9, dt=5e-12)
        trials = args.trials

    n_steps = int(round(spec.duration / spec.engine.dt))
    print(f"workload: {len(spec.scenarios)} scenarios, "
          f"{len({sc.corner['load_resistance'] for sc in spec.scenarios})} corner groups, "
          f"{n_steps} steps, {cores} core(s)")

    t_single, base = measure(spec, trials)
    print(f"single-process (rbf): {t_single*1e3:8.1f} ms")

    n_groups = len({sc.corner["load_resistance"] for sc in spec.scenarios})
    curve = []
    efficiency_at_8 = None
    for workers in WORKER_COUNTS:
        if workers == 1:
            # engine.workers=1 IS the single-process engine (the adapter
            # routes around the pool entirely) — reuse the baseline.
            t_n, result = t_single, base
        else:
            t_n, result = measure(with_workers(spec, workers), trials)
        perf = result.raw.perf_stats
        lanes = max(1, min(workers, cores))
        efficiency = t_single / (t_n * lanes)
        entry = {
            "workers": workers,
            "lanes": lanes,
            "elapsed_s": round(t_n, 5),
            "speedup_vs_single": round(t_single / t_n, 3),
            "efficiency": round(efficiency, 3),
            "shards": perf.get("shards", 1),
            "corner_groups": perf.get("corner_groups", n_groups),
            "pool_utilisation": perf.get("parallel_efficiency"),
            "bit_identical": identical(base, result),
            "groups_on_one_shard": groups_on_one_shard(spec, perf)
            if workers > 1 else perf["static_groups"] == n_groups,
        }
        curve.append(entry)
        if workers == 8:
            efficiency_at_8 = efficiency
        print(f"  {workers} worker(s): {t_n*1e3:8.1f} ms  shards {entry['shards']:2d}  "
              f"efficiency {entry['efficiency']:.2f}  "
              f"bit-identical {entry['bit_identical']}")

    fault = fault_plan_equivalence(spec, workers=4)
    print(f"fault-plan equivalence ({fault['poisoned_scenario']} "
          f"{fault['poisoned_status']}, {fault['shards']} shards): "
          f"bit-identical {fault['bit_identical']}")

    # Short runs: best of 9 alternating runs per side keeps scheduler
    # noise well under the 5% the gate allows.
    linear = linear_leg(trials=9)

    report = {
        "quick": bool(args.quick),
        "trials": trials,
        "numpy": np.__version__,
        "cpu_count": cores,
        "n_scenarios": len(spec.scenarios),
        "n_steps": n_steps,
        "single_process_s": round(t_single, 5),
        "curve": curve,
        "fault_plan_equivalence": fault,
        "linear_leg": linear,
        "pool_model": {"lane_group_step_s": LANE_GROUP_STEP_S, "pool_round_s": POOL_ROUND_S},
        "targets": {"efficiency_at_8_workers": min_efficiency,
                    "linear_speedup_vs_single": MIN_LINEAR_SPEEDUP},
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output}")

    ok = (
        efficiency_at_8 is not None
        and efficiency_at_8 >= min_efficiency
        and all(e["bit_identical"] and e["groups_on_one_shard"] for e in curve)
        and fault["bit_identical"]
        and fault["poisoned_status"] == "failed"
        and all(
            e["bit_identical"] and e["factorization_invariant"]
            and e["speedup_vs_single"] >= MIN_LINEAR_SPEEDUP
            for e in linear
        )
    )
    print("targets met" if ok else "targets NOT met")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
