"""cProfile helper for the hot paths of the engines.

Profiles one (or all) of the benchmark workloads and prints the top
functions by cumulative and internal time, optionally with the fast-path
kernels disabled so the naive reference paths can be inspected.  The
targets are the transistor-level link (``mna``), the RBF link (``rbf``),
the 1-D and 3-D FDTD hybrids (``fdtd1d``, ``fdtd3d``) and one Monte Carlo
sweep job of the linear link in perfbench's ``mc_sweep`` shape, run in
process at ``workers=1`` (``sweep``):

    PYTHONPATH=src python scripts/profile_hotpaths.py mna
    PYTHONPATH=src python scripts/profile_hotpaths.py sweep -n 30
    PYTHONPATH=src python scripts/profile_hotpaths.py fdtd3d --reference
    PYTHONPATH=src python scripts/profile_hotpaths.py all -n 30 -o prof.pstats
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import perf  # noqa: E402

TARGETS = ("mna", "rbf", "fdtd1d", "fdtd3d", "sweep")


def _workload(target: str):
    if target == "sweep":
        # No device models: the Monte Carlo job sweeps the linear link.
        sys.path.insert(0, ROOT)
        from perfbench.specs import montecarlo_sweep
        from repro.api import run, spec_from_dict

        spec = spec_from_dict(montecarlo_sweep(11, workers=1))
        run(spec)  # warm-up: lazy imports and first calls stay out of the profile
        return lambda: run(spec)

    from repro.circuits.testbenches import run_link_rbf, run_link_transistor
    from repro.core.cosim import LinkDescription
    from repro.core.ports import MacromodelTermination
    from repro.experiments.devices import identified_reference_macromodels
    from repro.experiments.fig7_pcb import run_figure7
    from repro.fdtd.solver1d import FDTD1DLine
    from repro.macromodel.driver import LogicStimulus

    models = identified_reference_macromodels(use_identification=True)
    link = LinkDescription(load="receiver", duration=4e-9)

    if target == "mna":
        return lambda: run_link_transistor(link, models.params, dt=5e-12)
    if target == "rbf":
        return lambda: run_link_rbf(
            link, models.driver, models.receiver, dt=5e-12, params=models.params
        )
    if target == "fdtd1d":
        stimulus = LogicStimulus.from_pattern("010", 2e-9)
        dt = 0.4e-9 / 60

        def run_1d():
            line = FDTD1DLine(
                z0=131.0,
                delay=0.4e-9,
                near_termination=MacromodelTermination.from_model(
                    models.driver.bound(stimulus), dt
                ),
                far_termination=MacromodelTermination.from_model(models.receiver, dt),
                n_cells=60,
            )
            return line.run(6e-9)

        return run_1d
    if target == "fdtd3d":
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
        return lambda: run_figure7(scale=scale, duration=1.5e-9, models=models)
    raise ValueError(f"unknown target {target!r}")


def profile_target(target: str, top: int, reference: bool, dump: str | None) -> None:
    workload = _workload(target)
    mode = "reference" if reference else "fast"
    print(f"\n=== {target} ({mode} path) ===")
    profiler = cProfile.Profile()
    with perf.use_fastpath(not reference):
        profiler.enable()
        workload()
        profiler.disable()
    stats = pstats.Stats(profiler)
    for order in ("cumulative", "tottime"):
        print(f"--- top {top} by {order} ---")
        stats.sort_stats(order).print_stats(top)
    if dump:
        path = f"{target}_{dump}" if len(dump.split(".")) > 1 else dump
        stats.dump_stats(path)
        print(f"profile written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("target", choices=TARGETS + ("all",))
    parser.add_argument("-n", "--top", type=int, default=20)
    parser.add_argument(
        "--reference", action="store_true", help="profile the naive reference path"
    )
    parser.add_argument("-o", "--output", default=None, help="dump .pstats file")
    args = parser.parse_args(argv)

    targets = TARGETS if args.target == "all" else (args.target,)
    for target in targets:
        profile_target(target, args.top, args.reference, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
