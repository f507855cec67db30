"""Batched scenario-sweep benchmark.

Measures the serving story of :mod:`repro.sweep`: how much cheaper one
scenario becomes when it runs inside a batch that shares the static MNA
assembly and the LU factorization, compared to a cold standalone
fast-path run.  Two workloads:

* ``linear`` — a >= 8-scenario bit-pattern/drive-strength sweep of the
  linear validation link.  The whole batch steps as one lane set and is
  advanced by one multi-RHS block solve per time step on a single shared
  factorization; the acceptance gate asserts the amortised per-scenario
  wall time is at least 2x below the cold single run and the batched
  waveforms match per-scenario sequential runs to <= 1e-12 relative.
* ``rbf`` — a macromodel-link pattern sweep whose scenarios each run
  their own Newton solve on the shared static stamps, each port on its
  own separable evaluator (the speedup is reported, not gated; the
  equivalence check — the batch must be waveform-identical to sequential
  runs — is the contract).

Writes ``BENCH_sweep.json``.  Run as a script:

    PYTHONPATH=src python benchmarks/bench_sweep.py

Use ``--quick`` for a CI-sized smoke run (shorter transients, library
macromodels instead of the identified ones).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.circuits.transient import TransientSolver  # noqa: E402
from repro.experiments.devices import identified_reference_macromodels  # noqa: E402
from repro.sweep import (  # noqa: E402
    Scenario,
    eye_report,
    linear_link_sweep,
    rbf_link_sweep,
)

REL_TOL = 1e-12


def relative_error(batched, sequential, nodes=("near", "far")) -> float:
    """Worst relative deviation between batched and sequential waveforms."""
    worst = 0.0
    for scenario in batched.scenarios:
        for node in nodes:
            a = batched.voltage(scenario.name, node)
            b = sequential.voltage(scenario.name, node)
            scale = max(float(np.max(np.abs(b))), 1e-30)
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return worst


def linear_scenarios(n: int) -> list[Scenario]:
    """Bit patterns x drive strengths (RHS-only: one shared factorization)."""
    return [
        Scenario(
            name=f"p{k}",
            bit_pattern=format(k % 8, "03b") * 2,
            drive_strength=1.0 + 0.04 * (k % 5),
        )
        for k in range(n)
    ]


def bench_linear(n_scenarios: int, duration: float, dt: float, trials: int) -> dict:
    sweep = linear_link_sweep(linear_scenarios(n_scenarios), dt=dt, duration=duration)

    # Cold standalone fast-path run of one scenario (includes compile,
    # assembly and factorization — the costs the batch amortises).
    scenario = sweep.scenarios[0]
    cold_times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        solver = TransientSolver(sweep.builder(scenario), dt)
        solver.run(duration, record_nodes=["near", "far"], record_branches=[])
        cold_times.append(time.perf_counter() - t0)
    cold_single = min(cold_times)

    batched = sequential = None
    for _ in range(trials):
        # Interleave the two modes so slow machine drift cannot bias the ratio.
        candidate = sweep.run()
        if batched is None or candidate.wall_time < batched.wall_time:
            batched = candidate
        candidate = sweep.run_sequential()
        if sequential is None or candidate.wall_time < sequential.wall_time:
            sequential = candidate
    rel_err = relative_error(batched, sequential)

    amortised = batched.amortised_wall_time()
    entry = {
        "n_scenarios": n_scenarios,
        "steps_per_scenario": int(batched.times.size - 1),
        "cold_single_run_s": round(cold_single, 5),
        "batched_total_s": round(batched.wall_time, 5),
        "amortised_per_scenario_s": round(amortised, 5),
        "sequential_total_s": round(sequential.wall_time, 5),
        "speedup_vs_cold_single": round(cold_single / amortised, 3),
        "rel_error_vs_sequential": rel_err,
        "shared_factorizations": batched.perf_stats["shared_factorizations"],
        "block_solves": batched.perf_stats["block_solves"],
    }
    print(
        f"linear   {n_scenarios:3d} scenarios  cold single {cold_single*1e3:7.2f} ms   "
        f"amortised {amortised*1e3:7.2f} ms   speedup {entry['speedup_vs_cold_single']:.2f}x   "
        f"rel err {rel_err:.2e}   factorizations {entry['shared_factorizations']}"
    )
    return entry


def bench_rbf(models, n_scenarios: int, duration: float, dt: float, trials: int) -> dict:
    patterns = ["010", "0110", "0101", "0011", "0100", "0111", "0010", "0001"]
    scenarios = [
        Scenario(name=f"r{k}", bit_pattern=patterns[k % len(patterns)])
        for k in range(n_scenarios)
    ]
    sweep = rbf_link_sweep(
        scenarios, {None: (models.driver, models.receiver)}, dt=dt, duration=duration
    )
    batched = sequential = None
    for _ in range(trials):
        candidate = sweep.run()
        if batched is None or candidate.wall_time < batched.wall_time:
            batched = candidate
        candidate = sweep.run_sequential()
        if sequential is None or candidate.wall_time < sequential.wall_time:
            sequential = candidate
    err = relative_error(batched, sequential)

    report = eye_report(batched, "far", 2e-9, low=0.0, high=1.8)
    entry = {
        "n_scenarios": n_scenarios,
        "steps_per_scenario": int(batched.times.size - 1),
        "batched_total_s": round(batched.wall_time, 5),
        "sequential_total_s": round(sequential.wall_time, 5),
        "speedup_vs_sequential": round(sequential.wall_time / batched.wall_time, 3),
        "rel_error_vs_sequential": err,
        "worst_eye_height_scenario": report.worst_height.scenario,
        "worst_eye_height_V": round(report.worst_height.eye_height, 4),
    }
    print(
        f"rbf      {n_scenarios:3d} scenarios  sequential {entry['sequential_total_s']*1e3:7.1f} ms   "
        f"batched {entry['batched_total_s']*1e3:7.1f} ms   speedup {entry['speedup_vs_sequential']:.2f}x   "
        f"rel err {err:.2e}"
    )
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_sweep.json")
    parser.add_argument("--scenarios", type=int, default=12, help="linear sweep width (>= 8)")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="shorter transients, library models")
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="gate: amortised linear per-scenario cost must beat the cold single "
        "run by this factor (default 2.0; --quick relaxes to 1.2 because short "
        "transients under-amortise and shared CI runners are noisy)",
    )
    args = parser.parse_args(argv)
    n_scenarios = max(args.scenarios, 8)
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = 1.2 if args.quick else 2.0

    if args.quick:
        duration, dt = 3e-9, 1e-11
        rbf_scenarios, rbf_duration, rbf_dt = 6, 2e-9, 1e-11
        models = identified_reference_macromodels(use_identification=False)
    else:
        duration, dt = 6e-9, 5e-12
        rbf_scenarios, rbf_duration, rbf_dt = 8, 4e-9, 1e-11
        print("identifying reference macromodels (disk-cached after the first run)...")
        models = identified_reference_macromodels(use_identification=True)

    linear = bench_linear(n_scenarios, duration, dt, args.trials)
    rbf = bench_rbf(models, rbf_scenarios, rbf_duration, rbf_dt, args.trials)

    report = {
        "quick": bool(args.quick),
        "trials": args.trials,
        "numpy": np.__version__,
        "linear": linear,
        "rbf": rbf,
        "targets": {"linear_speedup_vs_cold_single": min_speedup, "rel_error": REL_TOL},
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output}")

    ok = (
        linear["speedup_vs_cold_single"] >= min_speedup
        and linear["rel_error_vs_sequential"] <= REL_TOL
        and rbf["rel_error_vs_sequential"] <= REL_TOL
    )
    print("targets met" if ok else "targets NOT met")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
