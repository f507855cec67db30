"""Command-line front end of the job API: ``python -m repro``.

Four subcommands make a JSON job file a first-class artefact:

* ``run job.json``      — validate, execute, print a summary (optionally
  write the full result as JSON or NPZ with ``--output``);
* ``describe job.json`` — validate only: normalised spec, content hash,
  engine summary, estimated step count;
* ``list-engines``      — the engine kinds;
* ``serve``             — the long-running simulation service
  (:mod:`repro.service`): submit specs over HTTP, poll for results,
  identical jobs served from the content-addressed cache.

``--quick`` runs a capped smoke variant of the job (shorter span, smallest
3-D structure) — what the CI ``cli-smoke`` step exercises.

Exit codes: ``0`` clean run, ``2`` spec/IO error, ``3`` solver failure
(typed taxonomy verdict on stderr) or a partial sweep with failed
scenarios.  ``run`` accepts ``--max-retries`` / ``--on-nonconvergence``
to override the spec's resilience knobs (see ``engine.max_retries``).
See ``docs/`` (service.md, job-spec.md, operations.md) for the full
reference.
"""

from __future__ import annotations

import argparse
import sys


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative simulation jobs (see repro.api).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro-smc03 {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="validate and execute a JSON job file")
    p_run.add_argument("job", help="path to the JSON job file")
    p_run.add_argument(
        "--quick", action="store_true",
        help="run a capped smoke variant of the job (CI-friendly)",
    )
    p_run.add_argument(
        "--output", "-o", metavar="PATH", default=None,
        help="write the full result (.json or .npz by extension)",
    )
    p_run.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="override engine.max_retries: rewind and re-attempt a failing "
             "time step up to N times before giving up",
    )
    p_run.add_argument(
        "--on-nonconvergence", choices=("raise", "warn", "ignore"), default=None,
        help="override engine.on_nonconvergence: what to do with a step "
             "that exhausts its Newton iterations",
    )
    p_run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="override engine.workers: shard a sweep's scenario batch by "
             "corner group over N worker processes (bit-identical merge)",
    )
    p_run.add_argument(
        "--samples", type=int, default=None, metavar="N",
        help="override stats.samples of a Monte Carlo sweep (the job must "
             "already declare a stats block)",
    )
    p_run.add_argument(
        "--stat-seed", type=int, default=None, metavar="SEED",
        help="override stats.seed: the same seed regenerates the identical "
             "scenario batch (and the identical content hash)",
    )

    p_desc = sub.add_parser("describe", help="validate a job file and print its normalised form")
    p_desc.add_argument("job", help="path to the JSON job file")

    sub.add_parser("list-engines", help="list the engine kinds")

    p_serve = sub.add_parser(
        "serve", help="run the simulation service daemon (see docs/service.md)"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 exposes the daemon)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port (default 8765; 0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="solver processes running the queued jobs, forked at start (default 2)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-store directory (default $REPRO_CACHE_DIR/results); "
             "identical specs are served from it without solving",
    )
    p_serve.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-request access log",
    )
    return parser


def _cmd_list_engines() -> int:
    from repro.api.engines import ENGINES

    for kind, (summary, _) in ENGINES.items():
        print(f"{kind:8s} — {summary}")
    return 0


def _cmd_describe(path: str) -> int:
    from repro.api import load_spec
    from repro.api.engines import ENGINES

    spec = load_spec(path)
    summary, _ = ENGINES[spec.kind]
    n_steps = int(round(spec.duration / spec.resolved_dt()))
    print(f"job:          {path}")
    print(f"kind:         {spec.kind} — {summary}")
    if spec.label:
        print(f"label:        {spec.label}")
    print(f"content hash: {spec.content_hash()}")
    print(f"duration:     {spec.duration:.3e} s  (~{n_steps} steps at dt = "
          f"{spec.resolved_dt():.3e} s)")
    if spec.kind == "sweep":
        if spec.stats is not None:
            print(f"scenarios:    {spec.stats.samples} sampled from "
                  f"{len(spec.stats.distributions)} distributions, seed "
                  f"{spec.stats.seed} ({spec.engine.sweep_family} family)")
        else:
            print(f"scenarios:    {len(spec.scenarios)} "
                  f"({spec.engine.sweep_family} family)")
    print("normalised spec:")
    print(spec.to_json())
    return 0


def _health_line(health: dict) -> str:
    """One-line health summary out of ``perf_stats["health"]``."""
    parts = [f"ok={health.get('ok', True)}"]
    counts = health.get("failure_counts") or {}
    for kind in sorted(counts):
        parts.append(f"{kind}={counts[kind]}")
    for key in ("nonconverged_commits", "retries", "recovered_steps",
                "dt_halvings", "backend_fallbacks"):
        if health.get(key):
            parts.append(f"{key}={health[key]}")
    return ", ".join(parts)


def _cmd_run(
    path: str,
    quick: bool,
    output: str | None,
    max_retries: int | None = None,
    on_nonconvergence: str | None = None,
    workers: int | None = None,
    samples: int | None = None,
    stat_seed: int | None = None,
) -> int:
    import dataclasses

    from repro.api import load_spec, run

    spec = load_spec(path)
    if quick:
        spec = spec.quickened()
    overrides = {}
    if max_retries is not None:
        overrides["max_retries"] = max_retries
    if on_nonconvergence is not None:
        overrides["on_nonconvergence"] = on_nonconvergence
    if workers is not None:
        overrides["workers"] = workers
    if overrides:
        spec = dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, **overrides)
        )
    stat_overrides = {}
    if samples is not None:
        stat_overrides["samples"] = samples
    if stat_seed is not None:
        stat_overrides["seed"] = stat_seed
    if stat_overrides:
        if spec.stats is None:
            raise ValueError(
                "--samples/--stat-seed need a job with a stats block "
                "(see docs/job-spec.md)"
            )
        spec = dataclasses.replace(
            spec, stats=dataclasses.replace(spec.stats, **stat_overrides)
        )
    print(f"running {spec.kind} job {path}"
          + (f" [{spec.label}]" if spec.label else "")
          + (" (quick smoke variant)" if quick else ""))
    print(f"spec hash: {spec.content_hash()}")
    result = run(spec)
    names = result.names()
    print(f"engine:    {result.engine}")
    print(f"samples:   {result.times.size} x {len(names)} waveforms "
          f"(dt = {result.dt:.3e} s)")
    for name in names:
        wave = result.waveform(name)
        print(f"  {name}: min {wave.min():+.4g}  max {wave.max():+.4g}")
    interesting = (
        "lane_sets", "shared_factorizations", "static_reuses", "block_solves",
        "backend", "n_unknowns", "factorizations", "sparse_factorizations",
        "symbolic_factorizations", "pattern_reuses",
        "banked_elements", "accept_calls",
        "shards", "workers", "parallel_efficiency",
    )
    stats = {k: result.perf_stats[k] for k in interesting if k in result.perf_stats}
    models = result.perf_stats.get("models")
    if models:
        reuse = "cached" if models["cached"] else "built"
        stats["models"] = f"{models['source']}[{reuse} {models['resolve_s']:.4f}s]"
    if stats:
        print("perf:      " + ", ".join(f"{k}={v}" for k, v in stats.items()))
    health = result.perf_stats.get("health")
    if health:
        print(f"health:    {_health_line(health)}")
    mc = result.meta.get("montecarlo")
    if mc:
        height = mc["eye_height"]["percentiles"]
        width = mc["eye_width"]["percentiles"]
        print(f"montecarlo: {mc['completed']}/{mc['generated']} scenarios "
              f"(seed {mc['seed']}, {mc['corner_groups']} corner groups)")
        print(f"  eye height p1/p50/p99: {height['p1']:.4g} / {height['p50']:.4g} "
              f"/ {height['p99']:.4g} V")
        print(f"  eye width  p1/p50/p99: {width['p1']*1e12:.4g} / "
              f"{width['p50']*1e12:.4g} / {width['p99']*1e12:.4g} ps")
        worst = mc["worst"]
        print(f"  worst case: {worst['scenario']} "
              f"(height {worst['eye_height']:.4g} V, "
              f"width {worst['eye_width']*1e12:.4g} ps)")
        for entry in mc["refinement"]:
            print(f"  refine round {entry['round']}: worst height "
                  f"{entry['worst_height']:.4g} V ({entry['worst_scenario']})")
    status = result.meta.get("scenario_status") or {}
    failed = sorted(name for name, st in status.items() if st == "failed")
    if failed:
        failures = result.meta.get("failures") or {}
        for name in failed:
            record = failures.get(name) or {}
            print(f"FAILED scenario {name}: {record.get('kind', 'unknown')}: "
                  f"{record.get('message', '')}", file=sys.stderr)
    if output:
        if output.endswith(".npz"):
            result.save_npz(output)
        else:
            result.save_json(output)
        print(f"wrote result to {output}")
    # A partial sweep completed, but not cleanly: signal it like a failure.
    return 3 if failed else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro`` (returns the exit status)."""
    from repro.resilience import SolverError

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-engines":
            return _cmd_list_engines()
        if args.command == "describe":
            return _cmd_describe(args.job)
        if args.command == "run":
            return _cmd_run(
                args.job, args.quick, args.output,
                max_retries=args.max_retries,
                on_nonconvergence=args.on_nonconvergence,
                workers=args.workers,
                samples=args.samples,
                stat_seed=args.stat_seed,
            )
        if args.command == "serve":
            from repro.service import serve

            return serve(
                host=args.host, port=args.port, workers=args.workers,
                cache_dir=args.cache_dir, verbose=not args.quiet,
            )
    except SolverError as exc:
        # One-line taxonomy verdict: kind, step, scenario, residual.
        print(f"solver failure: {exc.failure.describe()}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
