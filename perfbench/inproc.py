"""In-process workloads: one client calling ``repro.api.run`` back to back.

``run.py`` starts this script once per set-up sample, with the hermetic
environment it prepared.  The script imports the job API, runs the
workload's warm-up jobs and prints ``READY``; with ``--setup-only`` it
stops there.  Otherwise it runs the timed jobs, prints ``MEASURED`` (the
parent samples this process tree's memory in between), verifies the
outputs and writes a JSON report to ``--out``.  With ``--probe`` it prints
``READY`` after the imports, runs only the first job of the stream, cold,
and reports its latency.

A job is ``spec_from_dict`` -> ``repro.api.run`` -> ``Result.to_dict`` ->
``json.dumps``.  The clock runs only while a job runs: output checks
between jobs are not timed.  With ``--trace 1`` the first half of the
time runs untraced and the second half, on the same job stream, with
every layer wrapped (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import copy
import importlib
import json
import random
import sys
import time

import checks
import layers
import specs
import tracing

#: shapes whose ``engine.fast=false`` oracle is cheap enough to replay
#: (the sparse ladder and 3-D oracles take 3-7 s each)
ORACLE_SHAPES = ("rbf_link", "ladder_dense", "fdtd1d_link")
ORACLE_SAMPLES = 2


def run_job(api, item: dict, recorder=None, keep_waveforms=False) -> dict:
    """One timed job, then its untimed output checks."""
    start = time.perf_counter()
    try:
        spec = api.spec_from_dict(item["spec"])
        ran = time.perf_counter()
        result = api.run(spec)
        run_s = time.perf_counter() - ran
        doc = result.to_dict()
        body = recorder.call("result.dumps", json.dumps, (doc,), {}) if recorder \
            else json.dumps(doc)
        latency = time.perf_counter() - start
    except Exception as exc:  # a failed job is counted, not fatal
        return {"shape": item["shape"], "latency": time.perf_counter() - start,
                "ok": False, "problems": [f"{type(exc).__name__}: {exc}"]}
    problems = checks.waveform_problems(
        result.times, {name: result.waveform(name) for name in result.names()},
        spec.duration,
    )
    status = result.meta.get("scenario_status") or {}
    problems += [f"scenario {name} {state}" for name, state in status.items()
                 if state == "failed"]
    record = {
        "shape": item["shape"],
        "latency": latency,
        "run_s": run_s,
        "ok": not problems,
        "problems": problems,
        "scenarios": int(result.meta.get("n_scenarios", 1)),
        "json_bytes": len(body),
        "counters": layers.job_counters(result.perf_stats, result.engine),
        "spec": item["spec"],
    }
    if keep_waveforms:
        record["waveforms"] = {name: result.waveform(name) for name in result.names()}
    if "montecarlo" in result.meta:
        record["summary"] = json.dumps(result.meta["montecarlo"], sort_keys=True)
    return record


def run_phase(api, workload: str, seed: int, seconds: float, recorder=None,
              tag: str = "j") -> list:
    """Closed loop: the next job starts when the previous one is checked."""
    jobs: list = []
    busy = 0.0
    keep = workload == "link_jobs"
    for index, item in enumerate(specs.stream(workload, seed)):
        if busy >= seconds:
            break
        if recorder is not None:
            recorder.job = f"{tag}{index}"
        record = run_job(api, item, recorder, keep_waveforms=keep and item["shape"] in ORACLE_SHAPES)
        if recorder is not None:
            recorder.job = None
        record["job"] = f"{tag}{index}"
        busy += record["latency"]
        jobs.append(record)
    return jobs


def verify_oracle(api, jobs: list, seed: int) -> dict:
    """link_jobs: replay a seeded sample with ``engine.fast=false``."""
    eligible = [job for job in jobs if job["ok"] and "waveforms" in job]
    sample = random.Random(seed).sample(eligible, min(ORACLE_SAMPLES, len(eligible)))
    checked = []
    for job in sample:
        spec = copy.deepcopy(job["spec"])
        spec.setdefault("engine", {})["fast"] = False
        oracle = api.run(api.spec_from_dict(spec))
        error = checks.relative_error(
            job["waveforms"], {name: oracle.waveform(name) for name in oracle.names()}
        )
        if not error <= checks.ORACLE_RTOL:
            job["ok"] = False
            job["problems"].append(f"differs from its fast=false oracle by {error:.3g} relative")
        checked.append({"job": job["job"], "shape": job["shape"], "rel_error": error})
    return {"oracle": checked}


def verify_replay(api, jobs: list, seed: int) -> dict:
    """mc_sweep: replay one job at ``workers=1``; its summary must not change."""
    eligible = [job for job in jobs if job["ok"]]
    if not eligible:
        return {"replay": None}
    job = random.Random(seed).choice(eligible)
    spec = copy.deepcopy(job["spec"])
    spec["engine"]["workers"] = 1
    start = time.perf_counter()
    result = api.run(api.spec_from_dict(spec))
    replay_s = time.perf_counter() - start
    if json.dumps(result.meta["montecarlo"], sort_keys=True) != job["summary"]:
        job["ok"] = False
        job["problems"].append("Monte Carlo summary differs at workers=1")
    return {"replay": {"job": job["job"], "sharded_s": job["run_s"], "inprocess_s": replay_s,
                       "speedup_vs_inprocess": replay_s / job["run_s"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("link_jobs", "mc_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    api = importlib.import_module("repro.api")
    for module in sorted({module for _, module, _ in tracing.TARGETS}):
        importlib.import_module(module)
    import_s = time.perf_counter() - start
    if args.probe:  # cold: no warm-up, so only the job can run long
        print("READY", flush=True)
        job = run_job(api, next(specs.stream(args.workload, args.seed)))
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"ok": job["ok"], "latency": job["latency"]}, handle)
        return 0
    for spec in specs.warmup_specs(args.workload):
        json.dumps(api.run(api.spec_from_dict(spec)).to_dict())
    print("READY", flush=True)
    if args.setup_only:
        return 0

    report = {"import_s": import_s, "phases": {}}
    if args.trace:
        half = args.seconds / 2.0
        report["phases"]["untraced"] = run_phase(api, args.workload, args.seed, half)
        recorder = tracing.Recorder()
        recorder.install()
        recorder.install_shard_workers()
        traced = run_phase(api, args.workload, args.seed, half, recorder, tag="t")
        report["phases"]["traced"] = traced
        timed = traced
    else:
        timed = run_phase(api, args.workload, args.seed, args.seconds)
        report["phases"]["timed"] = timed
    print("MEASURED", flush=True)

    if args.workload == "link_jobs":
        report.update(verify_oracle(api, timed, args.seed))
    else:
        report.update(verify_replay(api, timed, args.seed))

    if args.trace:
        traced_ids = {job["job"] for job in timed}
        spans = [span for span in recorder.spans if span["job"] in traced_ids]
        report["span_totals"] = tracing.totals(spans)
        if args.trace_out:
            recorder.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
    for phase in report["phases"].values():
        for job in phase:
            for bulky in ("waveforms", "spec", "summary"):
                job.pop(bulky, None)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
