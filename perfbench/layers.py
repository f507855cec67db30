"""Per-layer metrics of a traced run, per job.

Timings are busy seconds summed over the spans of the traced jobs and
divided by the number of those jobs; counts are divided the same way.
Counters the program already reports are read from ``Result.perf_stats``
of solved jobs only, so a result served from the store adds no work.
"""

from __future__ import annotations

import statistics

#: metric -> span names whose inclusive seconds it sums
SPAN_SECONDS = {
    "spec.parse_s": ("spec.parse",),
    "spec.hash_s": ("spec.hash",),
    "models.resolve_s": ("models.resolve",),
    "models.fit_s": ("models.fit",),
    "circuit.run_s": ("circuit.run",),
    "fdtd.run1d_s": ("fdtd.run1d",),
    "fdtd.run3d_s": ("fdtd.run3d",),
    "sweep.build_s": ("sweep.build",),
    "sweep.run_s": ("sweep.run",),
    "shard.run_s": ("shard.run",),
    "shard.plan_s": ("shard.plan",),
    "shard.merge_s": ("shard.merge",),
    "mc.generate_s": ("mc.generate",),
    "mc.merge_s": ("mc.merge",),
    "report.eye_s": ("report.eye",),
    "report.stats_s": ("report.stats",),
    "result.encode_s": ("result.to_dict", "result.dumps"),
    "result.npz_s": ("result.npz",),
    "store.get_s": ("store.get",),
    "store.put_s": ("store.put",),
}

#: metric -> span name whose calls it counts
SPAN_CALLS = {
    "models.resolve_calls": "models.resolve",
    "models.fit_calls": "models.fit",
}

CIRCUIT_COUNTERS = (
    "factorizations", "dense_solves", "sparse_factorizations",
    "symbolic_factorizations", "accept_calls",
)
SWEEP_COUNTERS = (
    "shared_factorizations", "static_reuses", "block_solves",
    "batched_rbf_evals", "solo_retries",
)
COUNTERS = tuple(f"circuit.{key}" for key in CIRCUIT_COUNTERS) + tuple(
    f"sweep.{key}" for key in SWEEP_COUNTERS
) + ("health.retries", "health.fallbacks")


def job_counters(perf_stats: dict, engine: str) -> dict:
    """The program's own counters of one solved job, by metric name."""
    if engine.startswith("sweep"):
        prefix, keys = "sweep", SWEEP_COUNTERS
    else:
        prefix, keys = "circuit", CIRCUIT_COUNTERS
    out = {f"{prefix}.{key}": int(perf_stats.get(key) or 0) for key in keys}
    health = perf_stats.get("health") or {}
    out["health.retries"] = int(health.get("retries") or 0)
    out["health.fallbacks"] = int(health.get("backend_fallbacks") or 0)
    return out


def sum_counters(per_job: list) -> dict:
    out = dict.fromkeys(COUNTERS, 0)
    for counters in per_job:
        for key, value in counters.items():
            out[key] += value
    return out


def per_layer(span_totals: dict, counters: dict, n_jobs: int) -> dict:
    """Span- and counter-derived metrics, each divided by ``n_jobs``."""
    n = max(n_jobs, 1)

    def row(name):
        return span_totals.get(name, {})

    out = {
        metric: sum(row(name).get("s", 0.0) for name in names) / n
        for metric, names in SPAN_SECONDS.items()
    }
    out.update({metric: row(name).get("calls", 0) / n for metric, name in SPAN_CALLS.items()})
    out.update({key: value / n for key, value in counters.items()})
    shard = row("shard.run")
    out["shard.pools"] = shard.get("pools", 0) / n
    out["shard.worker_busy_s"] = shard.get("busy_s", 0.0) / n
    out["shard.overhead_s"] = shard.get("overhead_s", 0.0) / n
    utilisation = shard.get("utilisation") or []
    out["shard.pool_utilisation"] = statistics.fmean(utilisation) if utilisation else 0.0
    return out
