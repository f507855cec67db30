"""Fast-path versus reference-path performance report.

Times the three engines on their benchmark workloads with the fast-path
kernels (:mod:`repro.perf`) enabled and disabled, at fixed seeds, and
writes ``BENCH_perf.json`` so future PRs have a performance trajectory:

* ``circuit_mna`` — the Ablation C link workload
  (``bench_ablation_macromodel_speed``): one transistor-level and one
  RBF-macromodel transient of the paper's validation link.
* ``fdtd1d_rbf`` — the 1-D FDTD line terminated by the driver/receiver
  macromodels (the Figure 5 class of runs).
* ``fdtd3d_pcb`` — the Figure 7 PCB simulation pair (with and without the
  incident plane wave) at ``REPRO_BENCH_SCALE`` (default 0.5).

Each configuration is run ``--trials`` times interleaved and the minimum
CPU time is reported, which suppresses machine noise.  Run as a script:

    PYTHONPATH=src python benchmarks/bench_perf_report.py

Use ``--quick`` for a fast smoke run (shorter transients; the JSON is
flagged accordingly).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro import perf  # noqa: E402
from repro.circuits.testbenches import run_link_rbf, run_link_transistor  # noqa: E402
from repro.core.cosim import LinkDescription  # noqa: E402
from repro.core.resampling import ResampledPortModel  # noqa: E402
from repro.experiments.devices import identified_reference_macromodels  # noqa: E402
from repro.experiments.fig7_pcb import run_figure7  # noqa: E402
from repro.fdtd.solver1d import FDTD1DLine  # noqa: E402
from repro.macromodel.driver import LogicStimulus  # noqa: E402


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


def _engine_entry(label, runner, trials):
    """Run a workload with the fast path on and off; return the JSON entry.

    Trials are interleaved (fast, reference, fast, reference, ...) and the
    per-mode minimum CPU time is kept, so slow drift of the machine state
    cannot bias the ratio.
    """
    times = {"fast": [], "reference": []}
    metrics = {}
    for _ in range(trials):
        for mode, enabled in (("fast", True), ("reference", False)):
            with perf.use_fastpath(enabled):
                t0 = time.process_time()
                metrics[mode] = runner()
                times[mode].append(time.process_time() - t0)
    entry = {}
    for mode in ("fast", "reference"):
        wall = min(times[mode])
        entry[mode] = {"wall_time_s": round(wall, 4), **metrics[mode]}
        if "steps" in metrics[mode] and wall > 0:
            entry[mode]["steps_per_s"] = round(metrics[mode]["steps"] / wall, 1)
    entry["speedup"] = round(entry["reference"]["wall_time_s"] / entry["fast"]["wall_time_s"], 3)
    print(
        f"{label:12s}  reference {entry['reference']['wall_time_s']:7.2f} s   "
        f"fast {entry['fast']['wall_time_s']:7.2f} s   speedup {entry['speedup']:.2f}x"
    )
    return entry


def run_circuit_mna(models, duration: float, dt: float = 5e-12):
    link = LinkDescription(load="receiver", duration=duration)

    def runner():
        ref = run_link_transistor(link, models.params, dt=dt)
        rbf = run_link_rbf(link, models.driver, models.receiver, dt=dt, params=models.params)
        steps = len(ref.times) + len(rbf.times)
        return {
            "steps": steps,
            "transistor_mean_newton": round(ref.metadata["mean_newton_iterations"], 3),
            "rbf_mean_newton": round(rbf.metadata["mean_newton_iterations"], 3),
        }

    return runner


def run_fdtd1d(models, duration: float):
    stimulus = LogicStimulus.from_pattern("010", 2e-9)
    dt = 0.4e-9 / 60

    def runner():
        line = FDTD1DLine(
            z0=131.0,
            delay=0.4e-9,
            near_termination=ResampledPortModel(
                models.driver.bound(stimulus), dt
            ),
            far_termination=ResampledPortModel(models.receiver, dt),
            n_cells=60,
        )
        result = line.run(duration)
        return {
            "steps": len(result.times),
            "mean_newton": round(result.newton_stats.mean_iterations, 3),
        }

    return runner


def run_fdtd3d(models, scale: float, duration: float):
    def runner():
        result = run_figure7(scale=scale, duration=duration, models=models)
        steps = sum(len(r.times) for r in result.results.values())
        stats = result.results["with_field"].newton_stats
        return {
            "steps": steps,
            "mean_newton": round(stats.mean_iterations, 3),
            "disturbance_near_V": round(result.disturbance["near_end"], 4),
        }

    return runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_perf.json")
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--quick", action="store_true", help="shorter transients")
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="gate on every engine's fast-vs-reference speedup instead of the "
        "full-workload targets (evaluated even with --quick; the CI perf "
        "smoke uses 1.0: the fast path must never lose to the reference)",
    )
    args = parser.parse_args(argv)

    scale = bench_scale()
    link_duration = 2e-9 if args.quick else 6e-9
    line_duration = 3e-9 if args.quick else 10e-9
    pcb_duration = 1e-9 if args.quick else 6e-9 * max(scale, 0.4)

    print("identifying reference macromodels (disk-cached after the first run)...")
    models = identified_reference_macromodels(use_identification=True)

    engines = {
        "circuit_mna": _engine_entry(
            "circuit_mna", run_circuit_mna(models, link_duration), args.trials
        ),
        "fdtd1d_rbf": _engine_entry(
            "fdtd1d_rbf", run_fdtd1d(models, line_duration), args.trials
        ),
        "fdtd3d_pcb": _engine_entry(
            "fdtd3d_pcb", run_fdtd3d(models, scale, pcb_duration), args.trials
        ),
    }

    report = {
        "bench_scale": scale,
        "quick": bool(args.quick),
        "trials": args.trials,
        "numpy": np.__version__,
        "engines": engines,
        "targets": {"circuit_mna": 3.0, "fdtd3d_pcb": 2.0},
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output}")

    if args.min_speedup is not None:
        worst = min(entry["speedup"] for entry in engines.values())
        ok = worst >= args.min_speedup
        print(
            f"minimum speedup {worst:.2f}x "
            f"({'meets' if ok else 'BELOW'} the {args.min_speedup:g}x gate)"
        )
        return 0 if ok else 1
    if args.quick:
        # Short transients under-amortise the per-run setup; quick mode is a
        # smoke run and does not gate on the full-workload targets.
        print("quick mode: targets not evaluated")
        return 0
    ok = (
        engines["circuit_mna"]["speedup"] >= report["targets"]["circuit_mna"]
        and engines["fdtd3d_pcb"]["speedup"] >= report["targets"]["fdtd3d_pcb"]
    )
    print("targets met" if ok else "targets NOT met")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
