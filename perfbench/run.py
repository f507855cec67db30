"""The repository's job-level benchmark: one run of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload link_jobs --seed 1 --seconds 30 --trace 0

Workloads (see ``README.md`` in this directory):

* ``link_jobs``   — in-process single-link jobs through ``repro.api.run``;
* ``mc_sweep``    — in-process Monte Carlo sweeps at ``engine.workers=2``;
* ``service_mix`` — ``python -m repro serve --workers 2`` and one client.

Every run is hermetic: a fresh ``REPRO_CACHE_DIR`` under ``.perfbench/``,
no inherited ``REPRO_*`` variable, ``PYTHONPATH=src`` and one BLAS thread
per process.  The program receives only the generated job specs.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every
per-layer metric, and the spans go to ``.perfbench/traces/``.  The lines
before it are a readable report.  The exit status is non-zero, with no
result line, when the run could not be made.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import layers
import memory
import svc
import traced_serve
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
#: set-up samples per run; the median is reported
SETUP_SAMPLES = 3
#: the whole run, set-up and checks included, ends within this
RUN_BUDGET_S = 170.0
#: the unpinned mc_sweep job is stopped after this many seconds
PROBE_CAP_S = 45.0
#: one BLAS thread per process keeps the busy threads and processes within
#: the two cores the workloads are sized for; with OpenBLAS's default
#: threads a forked shard pool oversubscribes them (see README.md)
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def hermetic_env(root: str, work: str) -> dict:
    """The environment every program process of a run starts with."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key not in BLAS_PINS}
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    env.update(BLAS_PINS, PYTHONPATH=os.path.join(root, "src"), TMPDIR=tmp)
    return env


def environment() -> dict:
    """What a reader needs to judge the figures: cores, versions, load."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "loadavg": os.getloadavg(),
    }


def tail(latencies: list):
    """The highest percentile with ten samples beyond it: (value, pct, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(jobs: list, window_s: float, setup: list, peak_rss_mb: float):
    """The end-to-end metrics and the notes printed with them."""
    ok = [job for job in jobs if job["ok"]]
    if not ok:
        raise RuntimeError("no job completed")
    latencies = [job["latency"] for job in ok]
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s_p50": statistics.median(latencies),
        "job_s_tail": value,
        "jobs_per_s": len(ok) / window_s,
        "scenarios_per_s": sum(job["scenarios"] for job in ok) / window_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup)} launches",
        "job_s_p50": f"{len(ok)} jobs",
        "job_s_tail": f"p{pct:.1f}, {beyond} jobs beyond" if beyond else "max: too few jobs",
        "jobs_per_s": f"{len(ok)} jobs in {window_s:.2f} s",
        "scenarios_per_s": f"{sum(job['scenarios'] for job in ok)} scenarios",
    }
    extra = {"failed_frac": (len(jobs) - len(ok)) / len(jobs)}
    if "hit" in ok[0]:
        hits, misses = split_hits(ok)
        extra["hit_s_p50"] = statistics.median(hits) if hits else None
        extra["miss_s_p50"] = statistics.median(misses) if misses else None
        notes["hit_s_p50"] = f"{len(hits)} hits"
        notes["miss_s_p50"] = f"{len(misses)} misses"
    return metrics, extra, notes


def split_hits(jobs: list):
    """Latencies of jobs served from the result store, and of solved jobs."""
    hits = [job["latency"] for job in jobs if job["hit"]]
    misses = [job["latency"] for job in jobs if not job["hit"]]
    return hits, misses


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def trace_metrics(traced: list, untraced: list, span_totals: dict, counters: dict,
                  import_s: float) -> dict:
    """The per-layer metrics every workload reports (zero where bypassed)."""
    metrics = layers.per_layer(span_totals, counters, len(traced))
    ok = [job for job in traced if job["ok"]]
    hits, misses = split_hits(ok) if "hit" in ok[0] else ([], [])
    p50_traced = statistics.median(job["latency"] for job in ok)
    p50_untraced = statistics.median(job["latency"] for job in untraced if job["ok"])
    metrics.update({
        "proc.import_s": import_s,
        "result.json_bytes": _mean(job["json_bytes"] for job in ok),
        "result.npz_bytes": _mean(job.get("npz_bytes", 0) for job in ok),
        "service.queue_wait_s": _mean(job.get("queue_wait_s", 0.0) for job in ok),
        "service.solve_s": _mean(job.get("solve_s", 0.0) for job in ok),
        "service.overhead_s": _mean(job.get("overhead_s", 0.0) for job in ok),
        "service.cache_hit_frac": len(hits) / len(traced),
        "service.solves_per_unique": 0.0,
        "service.hit_s_p50": statistics.median(hits) if hits else 0.0,
        "service.miss_s_p50": statistics.median(misses) if misses else 0.0,
        "shard.speedup_vs_inprocess": 0.0,
        "mc.unpinned_job_s": 0.0,
        "trace.job_s_p50_untraced": p50_untraced,
        "trace.job_s_p50_traced": p50_traced,
        "trace.overhead_s": p50_traced - p50_untraced,
    })
    return metrics


# ---------------------------------------------------------------------------
# the two kinds of workload
# ---------------------------------------------------------------------------

def expect(proc, word: bytes, deadline: float) -> None:
    line = svc.read_line(proc, deadline - time.monotonic())
    if line.strip() != word:
        raise RuntimeError(f"workload process did not print {word!r}: {line[:200]!r}")


def stop(proc) -> None:
    """Kill a workload process's session (it and any pool workers) if alive."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    proc.stdout.close()


def run_child(argv, env, root, deadline, sample=False):
    """One ``inproc.py`` process: its set-up seconds and, if ``sample``,
    the peak memory of its tree over the timed jobs."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=root, stdout=subprocess.PIPE,
                            start_new_session=True)
    peak = None
    try:
        expect(proc, b"READY", deadline)
        setup_s = time.perf_counter() - started
        if sample:
            sampler = memory.PeakSampler(proc.pid)
            try:
                expect(proc, b"MEASURED", deadline)
            finally:
                peak = sampler.stop()
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return setup_s, peak


def unpinned_probe(argv, env, root, deadline) -> float:
    """Seconds of one job with the BLAS threads left at their default.

    A lower bound if the job is stopped at ``PROBE_CAP_S`` (or at the run's
    own deadline).
    """
    env = {key: value for key, value in env.items() if key not in BLAS_PINS}
    deadline = min(deadline, time.monotonic() + PROBE_CAP_S)
    out = argv[argv.index("--out") + 1]
    proc = subprocess.Popen(argv + ["--probe"], env=env, cwd=root, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        expect(proc, b"READY", deadline)
        ready = time.perf_counter()
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            return time.perf_counter() - ready
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"probe process exited with {proc.returncode}")
    with open(out, encoding="utf-8") as handle:
        probe = json.load(handle)
    if not probe["ok"]:
        raise RuntimeError("the unpinned probe job failed")
    return probe["latency"]


def run_inproc(args, root, work, env, deadline, trace_out) -> dict:
    """link_jobs / mc_sweep: set-up samples, then one measured child."""
    out = os.path.join(work, "report.json")
    samples = 1 if args.trace else SETUP_SAMPLES
    setup = []

    def argv(extra=()):
        return [sys.executable, os.path.join(HERE, "inproc.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", out, "--trace-out", trace_out, *extra]

    def cache(name):
        return dict(env, REPRO_CACHE_DIR=os.path.join(work, f"cache-{name}"))

    for k in range(samples - 1):
        setup.append(run_child(argv(["--setup-only"]), cache(k), root, deadline)[0])
    setup_s, peak = run_child(argv(), cache("run"), root, deadline, sample=True)
    setup.append(setup_s)
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    verify = {k: report[k] for k in ("oracle", "replay") if k in report}

    phases = report["phases"]
    if not args.trace:
        jobs = phases["timed"]
        metrics, extra, notes = end_to_end(
            jobs, sum(job["latency"] for job in jobs), setup, peak)
        return {"jobs": jobs, "metrics": metrics, "extra": extra, "notes": notes,
                "verify": verify}
    traced = phases["traced"]
    counters = layers.sum_counters(job["counters"] for job in traced if job["ok"])
    metrics = trace_metrics(traced, phases["untraced"], report["span_totals"], counters,
                            report["import_s"])
    replay = report.get("replay")
    if replay:
        metrics["shard.speedup_vs_inprocess"] = replay["speedup_vs_inprocess"]
    if args.workload == "mc_sweep":
        metrics["mc.unpinned_job_s"] = unpinned_probe(
            argv(), cache("probe"), root, deadline)
    return {"jobs": traced + phases["untraced"], "metrics": metrics,
            "span_totals": report["span_totals"], "verify": verify}


def run_service(args, root, work, env, trace_out) -> dict:
    """service_mix: set-up samples, then one measured daemon (two if traced)."""
    serve = [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(traced_serve.WORKERS)]

    def phase_env(name):
        return dict(env, REPRO_CACHE_DIR=os.path.join(work, f"cache-{name}"))

    def log(name):
        return os.path.join(work, f"daemon-{name}.log")

    if not args.trace:
        setup = [svc.setup_only(serve, phase_env(k), root, log(k))
                 for k in range(SETUP_SAMPLES - 1)]
        phase = svc.run_phase(serve, phase_env("run"), root, log("run"), args.seed, args.seconds)
        setup.append(phase["setup_s"])
        jobs = phase["records"]
        metrics, extra, notes = end_to_end(jobs, phase["window_s"], setup, phase["peak_rss_mb"])
        extra["solves"] = phase["solves"]
        return {"jobs": jobs, "metrics": metrics, "extra": extra, "notes": notes}

    half = args.seconds / 2.0
    untraced = svc.run_phase(serve, phase_env("untraced"), root, log("untraced"),
                             args.seed, half)
    traced_argv = [sys.executable, os.path.join(HERE, "traced_serve.py"), "--port", "0",
                   "--trace-out", trace_out]
    traced = svc.run_phase(traced_argv, phase_env("traced"), root, log("traced"),
                           args.seed, half)
    with open(trace_out, encoding="utf-8") as handle:
        trace = json.load(handle)
    job_ids = {job["job_id"] for job in traced["records"] if "job_id" in job}
    span_totals = tracing.totals([span for span in trace["spans"] if span["job"] in job_ids])
    counters = layers.sum_counters(traced["counters"].values())
    metrics = trace_metrics(traced["records"], untraced["records"], span_totals, counters,
                            trace["meta"]["import_s"])
    unique = {job["spec_hash"] for job in traced["records"] if "spec_hash" in job}
    metrics["service.solves_per_unique"] = traced["solves"] / max(len(unique), 1)
    return {"jobs": traced["records"] + untraced["records"], "metrics": metrics,
            "span_totals": span_totals}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def print_report(args, outcome: dict, declared: dict) -> None:
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, value in outcome["metrics"].items():
        note = outcome.get("notes", {}).get(name, "")
        print(f"  {name:34s} {value:14.6g} {declared[name]:10s} {note}")
    for name, value in outcome.get("extra", {}).items():
        shown = "n/a" if value is None else f"{value:14.6g}"
        unit = "ratio" if name.endswith("frac") else ("s" if name.endswith("_s_p50") else "")
        print(f"  {name:34s} {shown:>14s} {unit:10s} {outcome.get('notes', {}).get(name, '')}")
    shapes: dict = {}
    for job in outcome["jobs"]:
        if job["ok"]:
            shapes.setdefault(job["shape"], []).append(job["latency"])
    for shape, latencies in sorted(shapes.items()):
        print(f"  shape {shape:28s} jobs {len(latencies):4d}  p50 {statistics.median(latencies):9.4f} s")
    for name, row in sorted(outcome.get("span_totals", {}).items(),
                            key=lambda item: -item[1]["self_s"]):
        print(f"  span {name:29s} calls {row['calls']:6d}  incl {row['s']:9.4f} s"
              f"  self {row['self_s']:9.4f} s")
    for key, value in outcome.get("verify", {}).items():
        print(f"  verify {key}: {json.dumps(value)}")
    for job in outcome["jobs"]:
        if not job["ok"]:
            print(f"  FAILED {job.get('shape')}: {'; '.join(job['problems'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("link_jobs", "mc_sweep", "service_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    declared = {row["name"]: row["unit"]
                for row in benchmark["per_layer" if args.trace else "end_to_end"]}

    print("env " + json.dumps(environment()), flush=True)
    base = os.path.join(root, ".perfbench")
    os.makedirs(os.path.join(base, "traces"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base)
    trace_out = os.path.join(base, "traces", f"{args.workload}-seed{args.seed}.json")
    try:
        env = hermetic_env(root, work)
        if args.workload == "service_mix":
            outcome = run_service(args, root, work, env, trace_out)
        else:
            outcome = run_inproc(args, root, work, env, deadline, trace_out)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(outcome["metrics"]) != set(declared):
        print(f"perfbench: metrics {sorted(set(outcome['metrics']) ^ set(declared))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print_report(args, outcome, declared)
    jobs = outcome["jobs"]
    failed = sum(not job["ok"] for job in jobs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
