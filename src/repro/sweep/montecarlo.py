"""Monte Carlo statistical SI: sampled scenario batches over the sweep engine.

The ROADMAP's "millions of scenarios" north star is a *statistical*
workload: instead of hand-enumerating a dozen corners, a ``stats`` block
(:class:`~repro.api.spec.StatsSpec`) declares parameter *distributions*
and this module samples a scenario batch from them — deterministically,
keyed by the block's seed — then feeds the batch through the existing
sweep machinery untouched.  Everything the sweep stack already guarantees
therefore composes for free:

* generation happens **before** shard planning, so a sampled sweep runs
  through :func:`repro.sweep.shard.run_sharded` exactly like a
  hand-written one and stays waveform-bit-identical to the
  single-process engine;
* corner draws are limited to ``corner_groups`` distinct values (each
  scenario assigned one round-robin), so the one-factorization-per-
  corner-group invariant survives continuous distributions;
* RHS-only dimensions (``bit_pattern``, ``drive_strength``) vary per
  scenario without ever splitting a corner group;
* the same seed regenerates the same scenarios, the same waveforms and
  the same spec ``content_hash`` — a rerun is a result-store cache hit,
  not a solve.

The per-scenario eye metrics (through the exact folding of
:mod:`repro.waveforms.eye`) are folded into statistical outputs:
eye-height/width distributions (:func:`repro.sweep.report.metric_distribution`),
a BER-style bathtub (:func:`repro.sweep.report.bathtub_curve`) and an
adaptive worst-case refinement loop that re-centres the continuous
distributions on the emerging worst corner for ``refine_rounds`` rounds,
shrinking their width by ``refine_shrink`` each round.  The worst-case
estimate is the minimum over *every* scenario evaluated so far, so the
refinement trace is monotone non-increasing by construction (gated by
``benchmarks/bench_montecarlo.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.spec import DistributionSpec, ScenarioSpec, SimulationSpec, StatsSpec
from repro.sweep.report import bathtub_curve, metric_distribution
from repro.sweep.result import SweepResult
from repro.sweep.shard import _merge_parts

__all__ = ["generate_scenarios", "run_montecarlo", "merge_sweep_results"]


# ---------------------------------------------------------------------------
# deterministic sampling
# ---------------------------------------------------------------------------

def _draw_numeric(rng: np.random.Generator, dist: DistributionSpec, size: int) -> np.ndarray:
    """``size`` draws of a numeric distribution, consuming rng state once."""
    if dist.kind == "uniform":
        return rng.uniform(dist.low, dist.high, size)
    if dist.kind == "normal":
        draws = rng.normal(dist.mean, dist.std, size)
        lo = dist.low if dist.low is not None else -np.inf
        hi = dist.high if dist.high is not None else np.inf
        return np.clip(draws, lo, hi)
    # choice (numeric values — validated by the spec layer)
    p = None
    if dist.weights:
        w = np.asarray(dist.weights, dtype=float)
        p = w / w.sum()
    return rng.choice(np.asarray(dist.values, dtype=float), size=size, p=p)


def _draw_patterns(rng: np.random.Generator, dist: DistributionSpec, size: int) -> List[str]:
    """``size`` bit-pattern draws (``pattern`` or 0/1-string ``choice``)."""
    if dist.kind == "pattern":
        bits = rng.integers(0, 2, size=(size, dist.bits))
        return ["".join("1" if b else "0" for b in row) for row in bits]
    p = None
    if dist.weights:
        w = np.asarray(dist.weights, dtype=float)
        p = w / w.sum()
    idx = rng.choice(len(dist.values), size=size, p=p)
    return [dist.values[int(i)] for i in idx]


def generate_scenarios(
    stats: StatsSpec,
    seed=None,
    prefix: str = "mc",
) -> Tuple[ScenarioSpec, ...]:
    """Sample the scenario batch a ``stats`` block describes.

    Generation is a pure function of ``(stats, seed, prefix)``: one
    ``numpy`` PCG64 generator is seeded and consumed in a fixed order —
    corner targets first (sorted by name, ``corner_groups`` draws each),
    then the per-scenario RHS dimensions (sorted target order) — so equal
    inputs regenerate bit-identical batches on every machine.

    Corner draws are shared: scenario ``i`` takes corner-draw ``i % G``
    where ``G = corner_groups or samples``, keeping the number of static
    factorizations at ``G`` regardless of the sample count.

    Parameters
    ----------
    stats:
        The validated stats block.
    seed:
        Override of ``stats.seed`` (the refinement loop passes
        ``[stats.seed, round]`` sequences for independent round streams).
    prefix:
        Scenario-name prefix; names are ``f"{prefix}{i:05d}"``.
    """
    rng = np.random.default_rng(stats.seed if seed is None else seed)
    n = stats.samples
    n_groups = min(stats.corner_groups or n, n)

    corner_draws: List[Dict[str, float]] = [{} for _ in range(n_groups)]
    for name in sorted(stats.corner_targets()):
        values = _draw_numeric(rng, stats.corner_targets()[name], n_groups)
        for g in range(n_groups):
            corner_draws[g][name] = float(values[g])

    patterns: Optional[List[str]] = None
    drives: Optional[np.ndarray] = None
    if "bit_pattern" in stats.distributions:
        patterns = _draw_patterns(rng, stats.distributions["bit_pattern"], n)
    if "drive_strength" in stats.distributions:
        drives = _draw_numeric(rng, stats.distributions["drive_strength"], n)

    return tuple(
        ScenarioSpec(
            name=f"{prefix}{i:05d}",
            bit_pattern=patterns[i] if patterns is not None else None,
            drive_strength=float(drives[i]) if drives is not None else 1.0,
            corner=dict(corner_draws[i % n_groups]),
        )
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# executing and merging sampled batches
# ---------------------------------------------------------------------------

def _execute(spec: SimulationSpec, models=None) -> SweepResult:
    """Run an expanded (scenarios materialised, ``stats=None``) sweep spec.

    Mirrors the sweep adapter's routing: sharded when the spec asks for
    workers or an explicit shard count, the in-process sweep engine
    otherwise — so a sampled sweep behaves exactly like the hand-written
    sweep it expanded into.
    """
    from repro.api.engines import build_sweep
    from repro.sweep.shard import resolve_worker_count, run_sharded

    workers = resolve_worker_count(spec.engine.workers)
    if workers > 1 or spec.engine.shards is not None:
        return run_sharded(spec, workers=workers, models=models)
    return build_sweep(spec, models=models)[0].run()


def _round_records(part: SweepResult) -> List[dict]:
    """The pool record of each round in ``part`` (one for an unmerged round)."""
    if "rounds" in part.perf_stats:
        return part.perf_stats["rounds"]
    return [{
        "scenarios": len(part.scenarios),
        "shards": int(part.perf_stats.get("shards", 1)),
        "parallel_efficiency": part.perf_stats.get("parallel_efficiency"),
        "wall_time": part.wall_time,
    }]


def merge_sweep_results(parts: Sequence[SweepResult]) -> SweepResult:
    """Concatenate sweep results of disjoint scenario batches, in order.

    Used to fold the refinement rounds into the base batch: scenario
    lists are concatenated (names are disjoint by prefix), engine
    counters summed, health telemetry re-merged, wall times added.  A
    single part is returned untouched.

    Each round decides on its own whether to pool, so ``perf_stats``
    keeps one record per round under ``rounds`` (its scenarios, shards,
    parallel efficiency and wall time).  A job that went through the
    shard layer reports its largest round's ``shards``, and a
    ``parallel_efficiency`` (the rounds' own, weighted by their wall
    times) only when every round pooled.
    """
    if not parts:
        raise ValueError("nothing to merge")
    if len(parts) == 1:
        return parts[0]
    merged = _merge_parts(
        [(scenario, part) for part in parts for scenario in part.scenarios],
        parts,
        wall_time=sum(part.wall_time for part in parts),
        carry=("workers",),
    )
    rounds = [record for part in parts for record in _round_records(part)]
    stats = merged.perf_stats
    stats["rounds"] = rounds
    if any("shards" in part.perf_stats for part in parts):  # the shard layer ran
        stats["shards"] = max(record["shards"] for record in rounds)
        wall = sum(record["wall_time"] for record in rounds)
        pooled = all(record["parallel_efficiency"] is not None for record in rounds)
        stats["parallel_efficiency"] = (
            round(sum(record["parallel_efficiency"] * record["wall_time"]
                      for record in rounds) / wall, 4)
            if pooled and wall > 0 else None
        )
    return merged


# ---------------------------------------------------------------------------
# adaptive worst-case refinement
# ---------------------------------------------------------------------------

def _refined_distributions(stats: StatsSpec, worst, shrink: float) -> dict:
    """The sampling distributions re-centred on the worst scenario.

    Continuous kinds (``uniform``, ``normal``) are re-centred on the
    worst scenario's value with their width multiplied by ``shrink``
    (uniform windows stay inside the original bounds).  Discrete kinds
    (``choice``, ``pattern``) are *pinned* to the worst draw — the worst
    bit pattern / discrete corner is held while the continuous
    neighbourhood is explored.
    """
    refined = {}
    for target, dist in stats.distributions.items():
        if target == "bit_pattern":
            pattern = worst.bit_pattern
            if pattern:
                refined[target] = DistributionSpec(kind="choice", values=(pattern,))
            else:
                refined[target] = dist
            continue
        if target == "drive_strength":
            centre = float(worst.drive_strength)
        else:
            name = target[len("corner."):]
            if name not in worst.corner:
                refined[target] = dist
                continue
            centre = float(worst.corner[name])
        if dist.kind == "uniform":
            half = 0.5 * (dist.high - dist.low) * shrink
            refined[target] = DistributionSpec(
                kind="uniform",
                low=max(dist.low, centre - half),
                high=min(dist.high, centre + half),
            )
        elif dist.kind == "normal":
            refined[target] = DistributionSpec(
                kind="normal",
                mean=centre,
                std=dist.std * shrink,
                low=dist.low,
                high=dist.high,
            )
        else:  # numeric choice: pin to the worst draw
            refined[target] = DistributionSpec(kind="choice", values=(centre,))
    return refined


def _eye_metrics(sweep: SweepResult, stats: StatsSpec, bit_time: float) -> dict:
    """Fold every completed scenario once; metrics keyed by scenario name."""
    eyes = {}
    for sc in sweep.scenarios:
        if sc.name not in sweep.results:
            continue
        eye = sweep.eye(sc.name, stats.node, bit_time, t_start=stats.t_start)
        eyes[sc.name] = (eye, eye.metrics(stats.low, stats.high))
    return eyes


def _worst_record(sweep: SweepResult, eyes: dict) -> dict:
    """The worst-height scenario (ties to the smaller width) as one dict."""
    name = min(
        eyes,
        key=lambda n: (eyes[n][1]["eye_height"], eyes[n][1]["eye_width"], n),
    )
    scenario = sweep.scenario(name)
    metrics = eyes[name][1]
    return {
        "scenario": name,
        "eye_height": float(metrics["eye_height"]),
        "eye_width": float(metrics["eye_width"]),
        "bit_pattern": scenario.bit_pattern,
        "drive_strength": float(scenario.drive_strength),
        "corner": {k: float(v) for k, v in scenario.corner.items()},
    }


def run_montecarlo(
    spec: SimulationSpec, models=None
) -> Tuple[SweepResult, dict]:
    """Execute a ``stats`` sweep spec: sample, run, aggregate, refine.

    The sweep adapter routes any ``kind="sweep"`` spec with a ``stats``
    block here.  The block's ``samples`` scenarios are generated from its
    seed, executed through the ordinary (sharded when requested) sweep
    path, and the per-scenario eye metrics are folded into the
    statistical summary.  ``refine_rounds`` > 0 then re-centres the
    distributions on the worst scenario and runs ``refine_samples`` more
    scenarios per round (seeded ``[seed, round]``), tightening the
    worst-case estimate monotonically.

    Returns
    -------
    (SweepResult, dict)
        The merged sweep result (base batch plus refinement rounds, in
        generation order) and the JSON-safe Monte Carlo summary — sample
        accounting, eye-height/width distributions, the bathtub curve,
        the worst-case record and the per-round refinement trace.
    """
    stats = spec.stats
    if stats is None:
        raise ValueError("run_montecarlo needs a spec with a stats block")
    bit_time = spec.stimulus.bit_time

    scenarios = generate_scenarios(stats)
    expanded = dataclasses.replace(spec, scenarios=scenarios, stats=None)
    merged = _execute(expanded, models=models)
    eyes = _eye_metrics(merged, stats, bit_time)
    if not eyes:
        raise ValueError(
            f"no completed scenarios to aggregate (failed: {merged.failed_scenarios})"
        )
    worst = _worst_record(merged, eyes)
    base_worst_height = worst["eye_height"]

    refinement: List[dict] = []
    for round_index in range(1, stats.refine_rounds + 1):
        shrink = stats.refine_shrink ** round_index
        worst_scenario = merged.scenario(worst["scenario"])
        refined = dataclasses.replace(
            stats,
            samples=stats.refine_samples,
            distributions=_refined_distributions(stats, worst_scenario, shrink),
            refine_rounds=0,
        )
        extra = generate_scenarios(
            refined,
            seed=[stats.seed, round_index],
            prefix=f"mc-r{round_index}-",
        )
        part = _execute(
            dataclasses.replace(spec, scenarios=extra, stats=None), models=models
        )
        merged = merge_sweep_results([merged, part])
        eyes.update(_eye_metrics(part, stats, bit_time))
        worst = _worst_record(merged, eyes)
        refinement.append(
            {
                "round": round_index,
                "samples": refined.samples,
                "shrink": shrink,
                "worst_height": worst["eye_height"],
                "worst_scenario": worst["scenario"],
            }
        )

    merged.perf_stats["rounds"] = _round_records(merged)
    heights = [m["eye_height"] for _, m in eyes.values()]
    widths = [m["eye_width"] for _, m in eyes.values()]
    summary = {
        "samples": stats.samples,
        "seed": stats.seed,
        "corner_groups": min(stats.corner_groups or stats.samples, stats.samples),
        "generated": len(merged.scenarios),
        "completed": len(eyes),
        "failed": merged.failed_scenarios,
        "node": stats.node,
        "bit_time": float(bit_time),
        "low": stats.low,
        "high": stats.high,
        "t_start": stats.t_start,
        "eye_height": metric_distribution(heights, bins=stats.bins),
        "eye_width": metric_distribution(widths, bins=stats.bins),
        "bathtub": bathtub_curve(
            [eye for eye, _ in eyes.values()], stats.low, stats.high
        ),
        "worst": worst,
        "base_worst_height": base_worst_height,
        "refinement": refinement,
    }
    return merged, summary
