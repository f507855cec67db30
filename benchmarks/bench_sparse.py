"""Sparse-vs-dense linear-solver backend benchmark.

Measures the scaling story of :mod:`repro.perf.backends`: the dense LAPACK
backend is the fastest at paper-sized circuits (a handful of unknowns) but
pays O(n^2) assembly/solves and an O(n^3) factorization as netlists grow,
while the sparse-CSC backend assembles COO-recorded stamps into a cached
sparsity pattern and ``splu``-factors purely linear circuits exactly once.

Workloads come from the parameterised netlist generators of
:mod:`repro.circuits.ladder`:

* ``ladder`` — a driven RC ladder (banded Jacobian), sized well past
  1000 MNA unknowns;
* ``mesh``   — a 2-D RC grid (fill-in-sensitive 2-D structure);
* ``paper``  — the paper's validation link at its native size, where the
  *dense* backend must stay the faster default;
* ``rbf-ladder`` — the RBF-terminated LC ladder from 10 to 130 sections,
  a Newton transient: the dense backend factors its Jacobian on every
  iteration, the sparse one factors the static network once and solves
  each iteration as a port-rank update (``port_solves``).  Its dense/sparse
  crossover sets ``SPARSE_THRESHOLD``; linear ``ladder`` rows in the band
  the threshold moved through (62-102 unknowns) check that it does not
  slow purely linear runs beyond the same rule.

Gates: the sparse backend must beat the dense backend by at least
``--min-speedup`` (default 2.0) on every workload with >= 1000 unknowns,
each linear transient must report exactly one symbolic factorization and
one numeric factorization in ``perf_stats``, sparse and dense waveforms
must agree to <= 1e-12 relative, and the auto backend selection must keep
dense the default (and the faster choice) at paper scale.  The element-bank
gate additionally requires the RC ladder's native element banks (the
generator's default) to beat the same ladder built from scalar elements by
>= ``--min-speedup`` at 2500 unknowns, with waveforms within 1e-12 — the
per-step Python element loops were the ceiling once the sparse solve got
cheap, and every solver path stamps a netlist as written.  The crossover
gate requires the automatic backend choice to be at most
``MAX_AUTO_SLOWDOWN`` (1.25) times slower than the other backend at every
measured size, sparse and dense waveforms of the RBF ladder to agree to
<= 1e-12 relative, and each sparse RBF-ladder transient to make exactly
one numeric factorization.

Dense and sparse runs of one circuit alternate and each backend keeps its
best time, so a slow spell of the machine hits both alike.  Times are wall
clock: process time would charge the next run for the CPU that OpenBLAS's
helper threads keep spinning after a dense solve.

Writes ``BENCH_sparse.json``.  Run as a script:

    PYTHONPATH=src python benchmarks/bench_sparse.py

Use ``--quick`` for a CI-sized smoke run (smallest >= 1000-unknown sizes,
one linear row in the threshold band, fewer crossover sizes, none of them
at the crossover itself, and shorter transients).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.circuits.ladder import rc_grid_circuit, rc_ladder_circuit  # noqa: E402
from repro.circuits.transient import TransientOptions, TransientSolver  # noqa: E402
from repro.perf.backends import SPARSE_THRESHOLD, resolve_backend_name  # noqa: E402
from repro.waveforms.signals import BitPattern  # noqa: E402

REL_TOL = 1e-12
#: the automatic backend choice may be at most this factor slower than the
#: other backend at any measured size
MAX_AUTO_SLOWDOWN = 1.25


def _stimulus() -> BitPattern:
    return BitPattern(pattern="0110", bit_time=1e-9, low=0.0, high=1.8, edge_time=1e-10)


def _build(workload: str, size: int):
    """One generated circuit plus its probe node."""
    if workload == "ladder":
        return rc_ladder_circuit(size, waveform=_stimulus())
    if workload == "mesh":
        return rc_grid_circuit(size, size, waveform=_stimulus())
    raise ValueError(f"unknown workload {workload!r}")


def _auto_slowdown(walls: dict, auto: str) -> float:
    """Wall time of the automatic choice over that of the other backend."""
    other = "sparse" if auto == "dense" else "dense"
    return round(walls[auto] / walls[other], 3)


def _run(circuit, probe: str, dt: float, duration: float, backend: str):
    solver = TransientSolver(circuit, dt, options=TransientOptions(backend=backend))
    t0 = time.perf_counter()
    result = solver.run(duration, record_nodes=[probe], record_branches=[])
    wall = time.perf_counter() - t0
    return result, wall, solver.perf_stats


def bench_workload(
    workload: str, size: int, dt: float, duration: float, trials: int
) -> dict:
    """Dense vs sparse on one generated netlist (fresh circuit per run)."""
    n_unknowns = _build(workload, size)[0].compile().n_unknowns
    waves = {}
    walls = {"dense": float("inf"), "sparse": float("inf")}
    stats = {}
    for _ in range(trials):
        for backend in ("dense", "sparse"):
            circuit, probe = _build(workload, size)
            result, wall, stats[backend] = _run(circuit, probe, dt, duration, backend)
            walls[backend] = min(walls[backend], wall)
            waves[backend] = result.voltage(probe)
    scale = max(float(np.max(np.abs(waves["dense"]))), 1e-30)
    rel_err = float(np.max(np.abs(waves["sparse"] - waves["dense"]))) / scale
    entry = {
        "workload": workload,
        "size": size,
        "n_unknowns": int(n_unknowns),
        "steps": int(round(duration / dt)),
        "dense_s": round(walls["dense"], 5),
        "sparse_s": round(walls["sparse"], 5),
        "sparse_speedup": round(walls["dense"] / walls["sparse"], 3),
        "rel_error_sparse_vs_dense": rel_err,
        "sparse_factorizations": stats["sparse"]["sparse_factorizations"],
        "symbolic_factorizations": stats["sparse"]["symbolic_factorizations"],
        "dense_factorizations": stats["dense"]["factorizations"],
        "auto_backend": resolve_backend_name(None, n_unknowns),
    }
    entry["auto_slowdown"] = _auto_slowdown(walls, entry["auto_backend"])
    print(
        f"{workload:7s} n={n_unknowns:5d}  dense {walls['dense']*1e3:8.1f} ms   "
        f"sparse {walls['sparse']*1e3:8.1f} ms   speedup {entry['sparse_speedup']:6.2f}x   "
        f"rel err {rel_err:.2e}   symbolic factorizations "
        f"{entry['symbolic_factorizations']}"
    )
    return entry


def bench_banked(size: int, dt: float, duration: float, trials: int) -> dict:
    """Native element banks vs scalar elements on the RC ladder.

    Both runs use the sparse backend on the same ladder: the "scalar" run
    is built with ``banked=False`` (one element per resistor and
    capacitor), the "native" run with the generator's default banks.
    """
    n_unknowns = rc_ladder_circuit(size, banked=False)[0].compile().n_unknowns
    waves, walls, stats = {}, {}, {}
    for mode, banked in (("scalar", False), ("native", True)):
        best = None
        for _ in range(trials):
            circuit, probe = rc_ladder_circuit(size, waveform=_stimulus(), banked=banked)
            result, wall, perf_stats = _run(circuit, probe, dt, duration, "sparse")
            best = wall if best is None else min(best, wall)
        waves[mode] = result.voltage(probe)
        walls[mode] = best
        stats[mode] = perf_stats
    scale = max(float(np.max(np.abs(waves["scalar"]))), 1e-30)
    entry = {
        "workload": "ladder-banked",
        "size": size,
        "n_unknowns": int(n_unknowns),
        "steps": int(round(duration / dt)),
        "scalar_s": round(walls["scalar"], 5),
        "native_s": round(walls["native"], 5),
        "native_speedup": round(walls["scalar"] / walls["native"], 3),
        "rel_error_native_vs_scalar": float(
            np.max(np.abs(waves["native"] - waves["scalar"]))
        ) / scale,
        "banked_elements": stats["native"]["banked_elements"],
        "scalar_accept_calls": stats["scalar"]["accept_calls"],
        "native_accept_calls": stats["native"]["accept_calls"],
    }
    print(
        f"banks   n={n_unknowns:5d}  scalar {walls['scalar']*1e3:8.1f} ms   "
        f"native {walls['native']*1e3:8.1f} ms   speedup "
        f"{entry['native_speedup']:6.2f}x   "
        f"accepts {entry['scalar_accept_calls']} -> {entry['native_accept_calls']}"
    )
    return entry


def bench_rbf_ladder(sections: int, dt: float, duration: float, trials: int) -> dict:
    """Dense vs sparse on the RBF-terminated LC ladder (a Newton transient)."""
    from repro.circuits.testbenches import run_link_rbf
    from repro.core.cosim import LinkDescription
    from repro.experiments.devices import reference_macromodels

    models, _ = reference_macromodels("library", n_centers=40)
    link = LinkDescription(duration=duration, segments=sections)
    walls = {"dense": float("inf"), "sparse": float("inf")}
    waves = {}
    stats = {}
    for _ in range(trials):
        for backend in ("dense", "sparse"):
            t0 = time.perf_counter()
            result = run_link_rbf(
                link, models.driver, models.receiver, dt=dt, params=models.params,
                options=TransientOptions(backend=backend),
            )
            walls[backend] = min(walls[backend], time.perf_counter() - t0)
            waves[backend] = result.voltage("far_end")
            stats[backend] = result.metadata["solver_stats"]
    n_unknowns = stats["sparse"]["n_unknowns"]
    scale = max(float(np.max(np.abs(waves["dense"]))), 1e-30)
    auto = resolve_backend_name(None, n_unknowns)
    entry = {
        "workload": "rbf-ladder",
        "size": sections,
        "n_unknowns": int(n_unknowns),
        "steps": int(round(duration / dt)),
        "dense_s": round(walls["dense"], 5),
        "sparse_s": round(walls["sparse"], 5),
        "sparse_speedup": round(walls["dense"] / walls["sparse"], 3),
        "rel_error_sparse_vs_dense": float(
            np.max(np.abs(waves["sparse"] - waves["dense"]))
        ) / scale,
        "sparse_factorizations": stats["sparse"]["sparse_factorizations"],
        "port_solves": stats["sparse"]["port_solves"],
        "auto_backend": auto,
        "auto_slowdown": _auto_slowdown(walls, auto),
    }
    print(
        f"rbf     n={n_unknowns:5d}  dense {walls['dense']*1e3:8.1f} ms   "
        f"sparse {walls['sparse']*1e3:8.1f} ms   speedup {entry['sparse_speedup']:6.2f}x   "
        f"rel err {entry['rel_error_sparse_vs_dense']:.2e}   auto -> {auto}   "
        f"factorizations {entry['sparse_factorizations']}, "
        f"port solves {entry['port_solves']}"
    )
    return entry


def bench_paper_scale(dt: float, duration: float, trials: int) -> dict:
    """The paper's validation link: dense must stay the fast default."""
    from repro.circuits.testbenches import run_link_rbf
    from repro.core.cosim import LinkDescription
    from repro.macromodel.library import (
        ReferenceDeviceParameters,
        make_reference_driver_macromodel,
        make_reference_receiver_macromodel,
    )

    params = ReferenceDeviceParameters()
    driver = make_reference_driver_macromodel(params, seed=0)
    receiver = make_reference_receiver_macromodel(params, seed=10)
    link = LinkDescription(duration=duration)
    walls = {}
    waves = {}
    for backend in ("dense", "sparse"):
        best = None
        for _ in range(trials):
            t0 = time.perf_counter()
            result = run_link_rbf(
                link, driver, receiver, dt=dt, params=params,
                options=TransientOptions(backend=backend),
            )
            best = min(best, time.perf_counter() - t0) if best is not None else (
                time.perf_counter() - t0
            )
        walls[backend] = best
        waves[backend] = result.voltage("far_end")
    scale = max(float(np.max(np.abs(waves["dense"]))), 1e-30)
    rel_err = float(np.max(np.abs(waves["sparse"] - waves["dense"]))) / scale
    entry = {
        "workload": "paper",
        "dense_s": round(walls["dense"], 5),
        "sparse_s": round(walls["sparse"], 5),
        "dense_speedup_vs_sparse": round(walls["sparse"] / walls["dense"], 3),
        "rel_error_sparse_vs_dense": rel_err,
        "auto_backend": resolve_backend_name(None, 8),
        "dense_is_faster": walls["dense"] <= walls["sparse"],
    }
    print(
        f"paper    link       dense {walls['dense']*1e3:8.1f} ms   "
        f"sparse {walls['sparse']*1e3:8.1f} ms   dense wins "
        f"{entry['dense_speedup_vs_sparse']:.2f}x   auto -> {entry['auto_backend']}"
    )
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_sparse.json")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="smallest >=1000-unknown sizes, shorter transients")
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="gate: sparse must beat dense by this factor at >= 1000 unknowns",
    )
    args = parser.parse_args(argv)

    if args.quick:
        cases = [("ladder", 80), ("ladder", 150), ("ladder", 1100), ("mesh", 33)]
        dt, duration = 1e-11, 2e-9
        trials = max(1, min(args.trials, 3))
        banked_duration = 1e-9
        sections, rbf_duration = (20, 40, 60, 80, 130), 3e-9
    else:
        cases = [("ladder", 60), ("ladder", 70), ("ladder", 80), ("ladder", 90),
                 ("ladder", 100), ("ladder", 110), ("ladder", 150), ("ladder", 250),
                 ("ladder", 1100), ("ladder", 2500), ("mesh", 40)]
        dt, duration = 1e-11, 4e-9
        trials = args.trials
        banked_duration = duration
        sections = (10, 20, 25, 30, 35, 40, 45, 50, 55, 60, 70, 80, 90, 105, 120, 130)
        rbf_duration = 6e-9

    entries = [
        bench_workload(workload, size, dt, duration, trials)
        for workload, size in cases
    ]
    # The element-bank gate always runs at the >= 2500-unknown size where
    # per-element Python bookkeeping dominated (quick mode only shortens
    # the transient, not the netlist).
    banked = bench_banked(2500, dt, banked_duration, trials)
    paper = bench_paper_scale(5e-12, 4e-9, trials)
    crossover = [bench_rbf_ladder(n, 1e-11, rbf_duration, trials) for n in sections]

    large = [e for e in entries if e["n_unknowns"] >= 1000]
    ok = (
        bool(large)
        and all(e["sparse_speedup"] >= args.min_speedup for e in large)
        and all(e["rel_error_sparse_vs_dense"] <= REL_TOL for e in entries)
        and all(e["symbolic_factorizations"] == 1 for e in entries)
        and all(e["sparse_factorizations"] == 1 for e in entries)
        and all(e["auto_backend"] == "sparse" for e in large)
        and paper["auto_backend"] == "dense"
        and paper["dense_is_faster"]
        and paper["rel_error_sparse_vs_dense"] <= REL_TOL
        and banked["native_speedup"] >= args.min_speedup
        and banked["rel_error_native_vs_scalar"] <= REL_TOL
        and banked["banked_elements"] > 0
        and all(e["auto_slowdown"] <= MAX_AUTO_SLOWDOWN
                for e in (*entries, *crossover))
        and all(e["rel_error_sparse_vs_dense"] <= REL_TOL for e in crossover)
        and all(e["sparse_factorizations"] == 1 for e in crossover)
    )

    report = {
        "quick": bool(args.quick),
        "trials": trials,
        "numpy": np.__version__,
        "workloads": entries,
        "banked": banked,
        "paper_scale": paper,
        "crossover": {
            "sparse_threshold": SPARSE_THRESHOLD,
            "rbf_ladder": crossover,
        },
        "targets": {
            "max_auto_slowdown": MAX_AUTO_SLOWDOWN,
            "sparse_speedup_at_1000_unknowns": args.min_speedup,
            "native_bank_speedup_at_2500_unknowns": args.min_speedup,
            "rel_error": REL_TOL,
            "symbolic_factorizations_per_linear_transient": 1,
            "sparse_factorizations_per_newton_transient": 1,
        },
        "targets_met": ok,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output}")
    print("targets met" if ok else "targets NOT met")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
