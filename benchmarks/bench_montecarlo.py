"""Monte Carlo statistical-SI benchmark: sampling + sharding + refinement gates.

Exercises :mod:`repro.sweep.montecarlo` at benchmark scale: a sampled
linear sweep (``stats`` block) is generated, run single-process and
sharded, and refined adaptively.

Gates (exit 1 on violation):

* **factorization reuse** — a sampled sweep of N scenarios limited to G
  corner groups reports exactly G static groups and G shared
  factorizations (sampling must not defeat the one-factorization-per-
  group invariant);
* **sharded equivalence** — the ``--workers`` comparison run is
  waveform-bit-identical to the single-process run, with an identical
  statistical summary (its ``shards`` are recorded: a linear round below
  the pool's break-even runs in process at any worker count);
* **determinism** — rerunning the same seed reproduces the identical
  summary (and spec ``content_hash``);
* **refinement** — the adaptive worst-case estimate is monotone
  non-increasing across rounds and the final estimate is no worse than
  the base batch's.

Writes ``BENCH_mc.json``.  Run as a script:

    PYTHONPATH=src python benchmarks/bench_montecarlo.py

Use ``--quick`` for a CI-sized smoke run (fewer samples, shorter
transient; same gates).
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

from repro.api import (  # noqa: E402
    EngineOptions,
    SimulationSpec,
    StatsSpec,
    StimulusSpec,
    run,
)


def montecarlo_spec(samples: int, corner_groups: int, duration: float,
                    dt: float, refine_rounds: int) -> SimulationSpec:
    """A sampled linear link sweep with continuous corner distributions."""
    return SimulationSpec(
        kind="sweep",
        duration=duration,
        stimulus=StimulusSpec(bit_time=2e-9, edge_time=1e-10),
        engine=EngineOptions(dt=dt, sweep_family="linear"),
        label="bench-montecarlo",
        stats=StatsSpec(
            samples=samples,
            seed=2026,
            corner_groups=corner_groups,
            distributions={
                "corner.load_resistance": {
                    "kind": "uniform", "low": 300.0, "high": 700.0},
                "corner.z0": {
                    "kind": "normal", "mean": 131.0, "std": 6.0,
                    "low": 110.0, "high": 150.0},
                # mixed patterns only (a flat all-0/all-1 draw closes the
                # eye to 0 by definition, which would make the refinement
                # gate vacuous)
                "bit_pattern": {"kind": "choice", "values": [
                    "010110", "011010", "010011", "011001"]},
                "drive_strength": {
                    "kind": "normal", "mean": 1.0, "std": 0.05,
                    "low": 0.85, "high": 1.15},
            },
            node="far", low=0.0, high=1.8, t_start=2e-9,
            refine_rounds=refine_rounds, refine_samples=max(4, samples // 8),
            refine_shrink=0.5,
        ),
    )


def identical(base, other) -> bool:
    """Bit-identity of two Results: times, every waveform, status."""
    if base.names() != other.names() or not np.array_equal(base.times, other.times):
        return False
    for name in base.names():
        if not np.array_equal(base.waveform(name), other.waveform(name)):
            return False
    return base.raw.status == other.raw.status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_mc.json")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run: fewer samples, shorter transient")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count of the sharded comparison run")
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    if args.quick:
        spec = montecarlo_spec(samples=16, corner_groups=4, duration=14e-9,
                               dt=2e-11, refine_rounds=1)
    else:
        spec = montecarlo_spec(samples=128, corner_groups=16, duration=14e-9,
                               dt=1e-11, refine_rounds=2)
    stats = spec.stats
    print(f"workload: {stats.samples} samples over {len(stats.distributions)} "
          f"distributions, {stats.corner_groups} corner groups, "
          f"{stats.refine_rounds} refinement round(s), {cores} core(s)")

    t0 = time.perf_counter()
    base = run(spec)
    t_single = time.perf_counter() - t0
    mc = base.meta["montecarlo"]
    perf = base.raw.perf_stats
    print(f"single-process: {t_single*1e3:8.1f} ms  "
          f"({mc['completed']}/{mc['generated']} scenarios)")

    # gate 1: sampling preserves factorization sharing per corner group —
    # the base batch contributes corner_groups distinct draws and every
    # refinement round adds at most min(corner_groups, refine_samples)
    # of its own, so factorizations stay far below the scenario count
    expected_groups = min(stats.corner_groups, stats.samples) \
        + stats.refine_rounds * min(stats.corner_groups, stats.refine_samples)
    factorization_reuse = (
        perf["static_groups"] == expected_groups
        and perf["shared_factorizations"] == expected_groups
        and expected_groups < mc["generated"]
    )
    print(f"factorization reuse: {perf['shared_factorizations']} factorizations "
          f"for {mc['generated']} scenarios (expected {expected_groups} groups) "
          f"-> {'ok' if factorization_reuse else 'VIOLATED'}")

    # gate 2: sharded == single-process, summary and bits
    t0 = time.perf_counter()
    sharded = run(dataclasses.replace(
        spec, engine=dataclasses.replace(spec.engine, workers=args.workers)))
    t_sharded = time.perf_counter() - t0
    sharded_identical = (
        identical(base, sharded) and sharded.meta["montecarlo"] == mc
    )
    lanes = max(1, min(args.workers, cores))
    shards = sharded.raw.perf_stats.get("shards")
    print(f"sharded ({args.workers} workers, {shards} shard(s) in the base round): "
          f"{t_sharded*1e3:8.1f} ms  speedup {t_single/t_sharded:.2f}x  "
          f"bit-identical {sharded_identical}")

    # gate 3: the same seed reproduces the identical summary, and the
    # JSON round-tripped spec keeps the identical content hash (so a
    # rerun is a result-store cache hit, not a solve)
    from repro.api import spec_from_dict

    rerun = run(spec)
    rebuilt = spec_from_dict(json.loads(json.dumps(spec.to_dict())))
    deterministic = (
        rerun.meta["montecarlo"] == mc and identical(base, rerun)
        and rebuilt.content_hash() == spec.content_hash()
    )
    print(f"seed determinism: {'ok' if deterministic else 'VIOLATED'}")

    # gate 4: adaptive refinement tightens the worst case monotonically
    trace = [mc["base_worst_height"]] + [
        r["worst_height"] for r in mc["refinement"]]
    monotone = all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))
    tightened = trace[-1] <= trace[0] + 1e-15
    print(f"refinement trace (V): {[round(t, 5) for t in trace]} "
          f"-> monotone {monotone}, final <= base {tightened}")

    report = {
        "quick": bool(args.quick),
        "numpy": np.__version__,
        "cpu_count": cores,
        "spec_hash": spec.content_hash(),
        "samples": stats.samples,
        "corner_groups": stats.corner_groups,
        "generated": mc["generated"],
        "completed": mc["completed"],
        "single_process_s": round(t_single, 5),
        "sharded_s": round(t_sharded, 5),
        "workers": args.workers,
        "shards": shards,
        "lanes": lanes,
        "speedup": round(t_single / t_sharded, 3),
        "eye_height": mc["eye_height"],
        "eye_width": mc["eye_width"],
        "worst": mc["worst"],
        "refinement_trace": trace,
        "gates": {
            "factorization_reuse": factorization_reuse,
            "sharded_bit_identical": sharded_identical,
            "deterministic": deterministic,
            "refinement_monotone": monotone,
            "refinement_tightens": tightened,
        },
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output}")

    ok = all(report["gates"].values())
    print("targets met" if ok else "targets NOT met")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
