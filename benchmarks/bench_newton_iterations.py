"""Section 4 benchmark — Newton-Raphson iteration count.

The paper reports that the Newton-Raphson solution of the coupled
FDTD/macromodel equations "never exceeded a maximum number of three"
iterations with a 1e-9 tolerance.
"""

from benchmarks.conftest import bench_scale
from repro.experiments.newton_iterations import run_newton_iteration_study
from repro.experiments.reporting import format_table


def test_newton_iteration_counts(benchmark, models):
    result = benchmark.pedantic(
        lambda: run_newton_iteration_study(
            scale=min(bench_scale(), 0.5), duration=5e-9, models=models
        ),
        rounds=1,
        iterations=1,
    )
    print("\nNewton-Raphson iterations per hybrid port solve (tolerance 1e-9)")
    rows = []
    for engine in result.max_iterations:
        hist = result.histogram[engine]
        rows.append(
            [
                engine,
                result.max_iterations[engine],
                f"{result.mean_iterations[engine]:.2f}",
                "  ".join(f"{k}:{v}" for k, v in sorted(hist.items())),
            ]
        )
    print(format_table(["engine", "max", "mean", "histogram (iters:count)"], rows))

    # Paper: never more than three; allow a one-iteration margin for the
    # substitute devices.
    for engine, worst in result.max_iterations.items():
        assert worst <= 4, engine
        assert result.mean_iterations[engine] <= 3.0, engine
