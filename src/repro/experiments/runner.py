"""Run every experiment and print a paper-style summary.

Intended for command-line use::

    python -m repro.experiments.runner --scale 0.5 --fast

``--fast`` uses the analytic library macromodels and shortened structures
so the whole evaluation completes in a couple of minutes; without it the
full identification workflow and the paper-size structures are used.
``--sweep`` runs the batched scenario-sweep study instead (bit-pattern x
corner sweep of the RBF link with an eye-diagram/worst-corner report).
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.experiments.devices import identified_reference_macromodels
from repro.experiments.fig2_stability import run_figure2
from repro.experiments.fig4_rc_load import run_figure4
from repro.experiments.fig5_rbf_receiver import run_figure5
from repro.experiments.fig7_pcb import run_figure7
from repro.experiments.newton_iterations import run_newton_iteration_study
from repro.experiments.reporting import format_table, sample_series

__all__ = ["main", "run_sweep_study"]


def run_sweep_study(
    models, bit_time: float = 2e-9, dt: float = 1e-11, scale: float = 1.0
) -> None:
    """Batched pattern x corner sweep of the RBF link with an eye report.

    The study is described as a declarative job (one
    :class:`~repro.api.spec.SimulationSpec`) and executed through
    :func:`repro.api.run` — the already-identified ``models`` are injected
    so the identification is not repeated.  ``scale`` shortens the line
    (the runner's ``--scale`` structure-length knob maps onto the ideal
    line's one-way delay), and ``bit_time``/``dt`` are the spec's timing
    defaults (the runner's ``--fast`` coarsens ``dt``).
    """
    from repro.api import (
        DeviceSpec,
        EngineOptions,
        LinkSpec,
        ScenarioSpec,
        SimulationSpec,
        StimulusSpec,
    )
    from repro.api import run as run_job
    from repro.sweep import eye_report

    patterns = ["01011010", "01100110", "01010101", "00111001"]
    scenarios = tuple(
        ScenarioSpec(name=f"{pattern}/z{z0:.0f}", bit_pattern=pattern, corner=corner)
        for pattern in patterns
        for z0, corner in ((131.0, {}), (100.0, {"z0": 100.0}))
    )
    spec = SimulationSpec(
        kind="sweep",
        label="runner --sweep: bit patterns x line corners, RBF link",
        duration=(len(patterns[0]) + 1) * bit_time,
        stimulus=StimulusSpec(bit_pattern=patterns[0], bit_time=bit_time),
        # The spec must describe the injected models so its content hash
        # keys the right result: library vs identified produce different
        # waveforms and must never share a cache entry.
        devices=DeviceSpec(
            source="library" if models.source == "library" else "identified"
        ),
        link=LinkSpec(delay=0.4e-9 * scale),
        scenarios=scenarios,
        engine=EngineOptions(dt=dt, sweep_family="rbf"),
    )
    result = run_job(spec, models=models)
    sweep = result.raw
    vdd = models.params.vdd
    report = eye_report(sweep, "far", bit_time, low=0.0, high=vdd, t_start=bit_time)
    print(report.format())
    stats = result.perf_stats
    print(
        f"\n{sweep.n_scenarios} scenarios in {sweep.wall_time:.2f} s "
        f"({sweep.amortised_wall_time()*1e3:.1f} ms/scenario amortised); "
        f"{stats['static_groups']} static groups, "
        f"{stats['static_reuses']} static reuses"
    )


def main(argv: list[str] | None = None) -> None:
    """Entry point of ``python -m repro.experiments.runner``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0, help="structure length scale")
    parser.add_argument("--fast", action="store_true", help="library macromodels, small structures")
    parser.add_argument(
        "--sweep", action="store_true",
        help="run the batched scenario-sweep study (eye/worst-corner report)",
    )
    args = parser.parse_args(argv)

    scale = min(args.scale, 0.25) if args.fast else args.scale
    use_identification = not args.fast

    if args.sweep:
        print("== Scenario sweep: bit patterns x line corners, batched engine ==")
        models = identified_reference_macromodels(use_identification=use_identification)
        # --scale shortens the swept line exactly like it shortens the 3-D
        # structure of the figure experiments; --fast coarsens the sweep's
        # time step along with its switch to the library macromodels.
        run_sweep_study(models, dt=2e-11 if args.fast else 1e-11, scale=scale)
        return

    print("== Figure 2: resampling stability ==")
    fig2 = run_figure2()
    print(
        format_table(
            ["tau", "analytically stable", "marching bounded", "circle centre", "radius"],
            fig2.summary_rows(),
        )
    )

    models = identified_reference_macromodels(use_identification=use_identification)

    print("\n== Figure 4: RC-loaded line, four engines ==")
    fig4 = run_figure4(scale=scale, models=models)
    print(f"effective line: Zc = {fig4.z_c:.1f} ohm, TD = {fig4.t_d*1e12:.0f} ps")
    sample_times = np.linspace(0.0, fig4.link.duration, 11)
    rows = []
    for engine, result in fig4.results.items():
        rows.append([engine + " (far end)"] + list(sample_series(result, "far_end", sample_times)))
    print(format_table(["series"] + [f"{t*1e9:.1f}ns" for t in sample_times], rows))
    print("relative RMS deviation from the transistor-level reference:")
    for engine, metrics in fig4.agreement.items():
        print(f"  {engine}: near {metrics['near_end']:.3f}  far {metrics['far_end']:.3f}")

    print("\n== Figure 5: receiver-loaded line ==")
    fig5 = run_figure5(scale=scale, models=models)
    for engine, metrics in fig5.agreement.items():
        print(f"  {engine} vs spice-rbf: near {metrics['near_end']:.3f}  far {metrics['far_end']:.3f}")

    print("\n== Figure 7: PCB incident-field coupling ==")
    fig7 = run_figure7(scale=scale, models=models)
    for probe, value in fig7.disturbance.items():
        print(f"  field-induced disturbance at {probe}: {value:.3f} V")

    print("\n== Newton-Raphson iterations (Section 4) ==")
    newton = run_newton_iteration_study(models=models)
    for engine in newton.max_iterations:
        print(
            f"  {engine}: max {newton.max_iterations[engine]} iterations, "
            f"mean {newton.mean_iterations[engine]:.2f} (tol {newton.tolerance:g})"
        )


if __name__ == "__main__":
    main()
