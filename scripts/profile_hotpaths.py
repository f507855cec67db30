"""cProfile helper for the hot paths of the engines.

Profiles one (or all) of the benchmark workloads and prints the top
functions by cumulative and internal time, optionally with the fast-path
kernels disabled so the naive reference paths can be inspected.  The
targets are the transistor-level link (``mna``), the RBF link (``rbf``),
one job of the RBF link over a 140-section LC ladder in perfbench's
``ladder_sparse`` shape, a sparse Newton transient (``ladder``), the 1-D
and 3-D FDTD hybrids (``fdtd1d``, ``fdtd3d``; the latter is the Figure 7
PCB pair), one job of perfbench's ``fdtd3d_link`` shape, the job that sets
the tail of its ``link_jobs`` workload (``link3d``), one Monte Carlo sweep job
of the linear link in perfbench's ``mc_sweep`` shape, run in process at
``workers=1`` (``sweep``), and the result store's ``put``, ``get``,
``body`` and ``npz`` of the golden ``examples/jobs/montecarlo_sweep.json``
result on a scratch store (``store``; the solve and its encoding run
before the profile starts):

    PYTHONPATH=src python scripts/profile_hotpaths.py mna
    PYTHONPATH=src python scripts/profile_hotpaths.py ladder -n 30
    PYTHONPATH=src python scripts/profile_hotpaths.py sweep -n 30
    PYTHONPATH=src python scripts/profile_hotpaths.py store
    PYTHONPATH=src python scripts/profile_hotpaths.py fdtd3d --reference
    PYTHONPATH=src python scripts/profile_hotpaths.py link3d -n 30
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

TARGETS = ("mna", "rbf", "ladder", "fdtd1d", "fdtd3d", "link3d", "sweep", "store")


def _store_workload():
    """One store round trip of the golden Monte Carlo result's bytes."""
    import atexit
    import io
    import shutil
    import tempfile

    from repro.api import load_spec, run
    from repro.service.jobs import result_summary
    from repro.service.store import ResultStore

    spec = load_spec(os.path.join(ROOT, "examples", "jobs", "montecarlo_sweep.json"))
    result = run(spec)
    buffer = io.BytesIO()
    result.save_npz(buffer)
    summary = result_summary(result.to_dict(include_waveforms=False))
    body, npz = result.to_json_bytes(), buffer.getvalue()
    root = tempfile.mkdtemp(prefix="repro-profile-store-")
    atexit.register(shutil.rmtree, root, True)
    store, spec_hash = ResultStore(root=root, enabled=True), spec.content_hash()
    print(f"golden result: {len(body) / 1e6:.1f} MB JSON, {len(npz) / 1e6:.1f} MB NPZ")

    def round_trip():
        assert store.put(spec_hash, summary, body, npz) is not None
        assert store.get(spec_hash) == summary
        assert store.body(spec_hash) == body
        assert store.npz(spec_hash) == npz

    return round_trip


def _workload(target: str):
    if target == "store":
        return _store_workload()
    if target == "sweep":
        # No device models: the Monte Carlo job sweeps the linear link.
        sys.path.insert(0, ROOT)
        from perfbench.specs import montecarlo_sweep
        from repro.api import run, spec_from_dict

        spec = spec_from_dict(montecarlo_sweep(11, workers=1))
        run(spec)  # warm-up: lazy imports and first calls stay out of the profile
        return lambda: run(spec)
    if target == "link3d":
        # perfbench's fdtd3d_link shape, written out: the quarter-scale
        # validation line on the 3-D Yee hybrid, 1.5 ns at 0.5 ns bits
        from repro.api import run, spec_from_dict

        spec = spec_from_dict({
            "format_version": 1, "kind": "fdtd3d", "label": "profile link3d",
            "duration": 1.5e-9,
            "stimulus": {"bit_pattern": "011", "bit_time": 5e-10},
            "link": {"z0": 131.0, "delay": 4e-10, "load": "rc",
                     "load_resistance": 500.0, "load_capacitance": 1e-12},
            "structure": {"scale": 0.25},
        })
        run(spec)  # warm-up: the device models are fitted outside the profile
        return lambda: run(spec)
    if target == "ladder":
        import random

        sys.path.insert(0, ROOT)
        from perfbench.specs import SPARSE_SEGMENTS, ladder
        from repro.api import run, spec_from_dict

        spec = spec_from_dict(ladder(random.Random(11), SPARSE_SEGMENTS[0]))
        run(spec)  # warm-up: the device models are fitted outside the profile
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
