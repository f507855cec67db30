"""Eye-diagram and worst-case-corner reporting over a sweep.

The point of running many scenarios is the summary: which bit pattern /
corner combination closes the eye the most.  This module folds every
scenario of a :class:`~repro.sweep.result.SweepResult` through
:mod:`repro.waveforms.eye` and reports per-scenario eye height/width plus
the worst-case scenario of each metric.  The statistical layer on top
(:mod:`repro.sweep.montecarlo`) aggregates thousands of such metrics
through :func:`metric_distribution` (percentiles + histogram) and
:func:`bathtub_curve` (BER-style per-phase violation rates).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from repro.experiments.reporting import format_table
from repro.sweep.result import SweepResult
from repro.waveforms.eye import EyeDiagram

__all__ = [
    "EyeReportRow",
    "SweepEyeReport",
    "eye_report",
    "metric_distribution",
    "bathtub_curve",
]

#: percentile levels of a metric distribution summary
_PERCENTILES = (1, 5, 25, 50, 75, 95, 99)


@dataclasses.dataclass(frozen=True)
class EyeReportRow:
    """Eye metrics of one scenario."""

    scenario: str
    bit_pattern: str | None
    eye_height: float
    eye_width: float
    v_min: float
    v_max: float


@dataclasses.dataclass
class SweepEyeReport:
    """Per-scenario eye metrics and the worst-case corners of the sweep.

    Failed scenarios of a partial sweep have no waveform to fold; they are
    listed in :attr:`failed` instead of contributing rows, so the
    worst-case corners summarise only the scenarios that completed.
    """

    node: str
    bit_time: float
    rows: List[EyeReportRow]
    failed: List[str] = dataclasses.field(default_factory=list)

    @property
    def worst_height(self) -> EyeReportRow:
        """Scenario with the smallest vertical eye opening."""
        return min(self.rows, key=lambda row: row.eye_height)

    @property
    def worst_width(self) -> EyeReportRow:
        """Scenario with the smallest horizontal eye opening."""
        return min(self.rows, key=lambda row: row.eye_width)

    def to_dict(self) -> dict:
        """JSON-serialisable summary (benchmarks persist this)."""
        return {
            "node": self.node,
            "bit_time": self.bit_time,
            "scenarios": [dataclasses.asdict(row) for row in self.rows],
            "worst_height_scenario": self.worst_height.scenario,
            "worst_width_scenario": self.worst_width.scenario,
            "failed_scenarios": list(self.failed),
        }

    def format(self) -> str:
        """Plain-text table of the report."""
        table = format_table(
            ["scenario", "pattern", "eye height (V)", "eye width (ps)", "min (V)", "max (V)"],
            [
                [
                    row.scenario,
                    row.bit_pattern or "-",
                    row.eye_height,
                    row.eye_width * 1e12,
                    row.v_min,
                    row.v_max,
                ]
                for row in self.rows
            ],
        )
        worst = (
            f"worst eye height: {self.worst_height.scenario} "
            f"({self.worst_height.eye_height:.4g} V)\n"
            f"worst eye width:  {self.worst_width.scenario} "
            f"({self.worst_width.eye_width*1e12:.4g} ps)"
        )
        if self.failed:
            worst += f"\nfailed scenarios (no eye): {', '.join(self.failed)}"
        return f"{table}\n{worst}"


def eye_report(
    sweep: SweepResult,
    node: str,
    bit_time: float,
    low: float,
    high: float,
    t_start: float = 0.0,
) -> SweepEyeReport:
    """Fold every scenario of a sweep into eye metrics at one node.

    Parameters
    ----------
    sweep:
        The finished sweep.
    node:
        Recorded node whose waveform is folded.
    bit_time:
        Eye folding period (the stimulus bit time).
    low, high:
        Logic levels used for the height/width thresholds.
    t_start:
        First bit boundary; earlier samples (start-up transients) are
        discarded before folding.
    """
    rows = []
    failed = [sc.name for sc in sweep.scenarios if sc.name not in sweep.results]
    for scenario in sweep.scenarios:
        if scenario.name not in sweep.results:
            continue
        eye = sweep.eye(scenario.name, node, bit_time, t_start=t_start)
        metrics = eye.metrics(low, high)
        rows.append(
            EyeReportRow(
                scenario=scenario.name,
                bit_pattern=scenario.bit_pattern,
                eye_height=metrics["eye_height"],
                eye_width=metrics["eye_width"],
                v_min=metrics["v_min"],
                v_max=metrics["v_max"],
            )
        )
    if not rows:
        raise ValueError(
            f"no completed scenarios to report on (failed: {failed})"
        )
    return SweepEyeReport(node=node, bit_time=bit_time, rows=rows, failed=failed)


def metric_distribution(values: Sequence[float], bins: int = 20) -> dict:
    """Statistical summary of one scalar metric across many scenarios.

    The JSON-safe building block of the Monte Carlo outputs: count /
    mean / std / min / max, the standard percentile ladder (p1 … p99,
    linear interpolation) and a fixed-width histogram over the observed
    range (``bins`` bins; a degenerate all-equal sample gets one bin
    holding everything).
    """
    if len(values) == 0:
        raise ValueError("metric_distribution needs at least one value")
    if bins < 2:
        raise ValueError(f"histogram needs at least 2 bins, got {bins}")
    arr = np.asarray(values, dtype=float)
    levels = np.percentile(arr, _PERCENTILES)
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
    else:
        counts, edges = np.array([arr.size]), np.array([lo, hi if hi > lo else lo + 1e-30])
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": lo,
        "max": hi,
        "percentiles": {
            f"p{level}": float(value) for level, value in zip(_PERCENTILES, levels)
        },
        "histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
    }


def bathtub_curve(
    eyes: Sequence[EyeDiagram], low: float, high: float
) -> dict:
    """BER-style per-phase violation rates aggregated across many eyes.

    Every folded trace of every eye is classified HIGH or LOW by the mean
    of its central 20 % window (the same decision :meth:`EyeDiagram.eye_height`
    uses); at each phase sample a trace *violates* when it is on the
    wrong side of the logic midline or within the 5 %-of-swing guard band
    around it (the :meth:`EyeDiagram.eye_width` clearance).  The
    violation rate per phase across all traces is the bathtub: high at
    the unit-interval edges where edges transition, low (ideally zero)
    in the eye centre.

    All eyes must share one phase axis (they do when folded from one
    sweep); a mismatched axis raises instead of silently
    resampling.
    """
    if not eyes:
        raise ValueError("bathtub_curve needs at least one eye")
    first = eyes[0]
    mid = 0.5 * (low + high)
    guard = 0.05 * (high - low)
    centre = 0.5 * first.bit_time
    half_win = 0.1 * first.bit_time
    n_phase = first.phase.size
    violations = np.zeros(n_phase, dtype=np.int64)
    total = 0
    for eye in eyes:
        if eye.phase.size != n_phase or not np.allclose(eye.phase, first.phase):
            raise ValueError(
                "bathtub_curve needs a common phase axis across all eyes"
            )
        window = (eye.phase >= centre - half_win) & (eye.phase <= centre + half_win)
        is_high = eye.traces[:, window].mean(axis=1) >= mid
        # wrong side of the midline, or inside the guard band around it
        signed = np.where(is_high[:, None], eye.traces - mid, mid - eye.traces)
        violations += (signed < guard).sum(axis=0)
        total += eye.n_traces
    rate = violations / float(total)
    return {
        "phase": [float(p) for p in first.phase],
        "phase_fraction": [float(p / first.bit_time) for p in first.phase],
        "violation_rate": [float(r) for r in rate],
        "n_traces": int(total),
        "guard": float(guard),
        "open_fraction": float(np.mean(rate == 0.0)),
    }
