"""Span recorder and the wrappers that time each layer from outside.

The benchmark adds no instrumentation to ``src/``: it replaces a layer's
public function at the module attribute its caller looks up, and every
call then records a span (name, parent span, job id, wall-clock start,
duration).  A function that its caller binds with ``from ... import`` is
patched in the caller's module.  Spans stay in memory and are written out
when the traced process ends; self time is computed at write-out.

A forked shard worker inherits the wrappers, and the spans it records
travel back to the parent with its shard result (``install_shard_workers``).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

#: (span name, module, attribute) of every timed entry point
TARGETS = (
    ("api.run", "repro.api", "run"),
    ("spec.parse", "repro.api", "spec_from_dict"),
    ("spec.hash", "repro.api.spec", "SimulationSpec.content_hash"),
    ("models.resolve", "repro.api.engines", "resolve_models"),
    ("models.fit", "repro.macromodel.library", "fit_rbf_submodel"),
    ("circuit.run", "repro.circuits.testbenches", "run_link_rbf"),
    ("fdtd.run1d", "repro.experiments.fig4_rc_load", "run_fdtd1d_link"),
    ("fdtd.run3d", "repro.experiments.fig4_rc_load", "run_fdtd3d_link"),
    ("sweep.build", "repro.api.engines", "build_sweep"),
    ("sweep.run", "repro.sweep.engine", "CircuitSweep.run"),
    ("shard.run", "repro.sweep.shard", "run_sharded"),
    ("shard.plan", "repro.sweep.shard", "plan_shards"),
    ("shard.merge", "repro.sweep.shard", "merge_shard_results"),
    ("mc.generate", "repro.sweep.montecarlo", "generate_scenarios"),
    ("mc.merge", "repro.sweep.montecarlo", "merge_sweep_results"),
    ("report.eye", "repro.sweep.result", "eye_diagram"),
    ("report.stats", "repro.sweep.montecarlo", "metric_distribution"),
    ("report.stats", "repro.sweep.montecarlo", "bathtub_curve"),
    ("result.to_dict", "repro.api.result", "Result.to_dict"),
    ("result.npz", "repro.api.result", "Result.save_npz"),
)

#: the service's entry points: its store, and the two calls that tie a
#: span to a job id (submission on the HTTP thread, solve on a worker)
SERVICE_TARGETS = (
    ("store.get", "repro.service.store", "ResultStore.get"),
    ("store.put", "repro.service.store", "ResultStore.put"),
    ("service.submit", "repro.service.jobs", "JobManager.submit"),
    ("service.process", "repro.service.jobs", "JobManager._process"),
)


def _shard_fields(result) -> dict:
    """Per-shard figures of one ``run_sharded`` return value.

    Monte Carlo merges its rounds and drops ``shard_stats``, so they are
    read here, from every call, rather than from the job's result.
    """
    stats = result.perf_stats
    walls = [float(shard["wall_time"]) for shard in stats.get("shard_stats", ())]
    return {
        "shards": int(stats.get("shards", 0)),
        "busy_s": sum(walls),
        "slowest_s": max(walls, default=0.0),
        "utilisation": stats.get("parallel_efficiency"),
    }


class Recorder:
    """In-memory spans of one process.

    ``job`` tags every span while a single-threaded caller runs one job;
    in the daemon the job id comes from the job the span's thread is
    submitting or solving.
    """

    def __init__(self):
        self.spans: list = []
        self.job = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.tag, local.pending = [], None, []
        return local

    def call(self, name, fn, args, kwargs):
        local = self._thread()
        if name == "service.process":  # JobManager._process(self, job)
            local.tag = args[1].job_id
        tag = self.job if self.job is not None else local.tag
        span = {
            "name": name,
            "parent": local.stack[-1] if local.stack else None,
            "job": tag,
            "thread": threading.get_ident(),
            "wall": time.time(),
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        if tag is None:
            local.pending.append(span)
        local.stack.append(span["id"])
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span["dur"] = time.perf_counter() - start
            local.stack.pop()
            if name == "service.process":
                local.tag = None
        if name == "shard.run":
            span.update(_shard_fields(out))
        elif name == "service.submit":
            # the parse, hash and store lookup before the job id existed
            for pending in local.pending:
                pending["job"] = out.job_id
            local.pending.clear()
        return out

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; a missing one is an error, not a silent gap."""
        for name, module_name, attribute in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self._wrapper(name, getattr(owner, leaf)))

    def install_shard_workers(self) -> None:
        """Collect the spans of forked shard workers too.

        A forked worker records into its own copy of this recorder, which
        dies with it.  The worker entry point is wrapped to return its new
        spans with the shard result, and the pool call to adopt them.  The
        pool pickles the entry point by name, so the wrapper keeps the
        original's name.  The caller must be single-threaded, so that the
        pool forks: a spawned worker would import the unwrapped module.
        """
        shard = importlib.import_module("repro.sweep.shard")
        solve, run_pool = shard._solve_shard, shard._run_pool

        @functools.wraps(solve)
        def traced_solve(payload):
            self._thread().stack = []  # the forking thread's stack is the parent's
            first = len(self.spans)
            result = self.call("shard.solve", solve, (payload,), {})
            return result, self.spans[first:]

        @functools.wraps(run_pool)
        def traced_run_pool(payloads, workers):
            results = []
            for result, spans in run_pool(payloads, workers):
                self.adopt(spans)
                results.append(result)
            return results

        shard._solve_shard, shard._run_pool = traced_solve, traced_run_pool

    def adopt(self, spans: list) -> None:
        """Append a worker's spans, renumbered after this process's own.

        They are marked ``worker``: they ran beside the parent's spans, so
        they are never children of one and take no self time from it.
        """
        with self._lock:
            offset = len(self.spans) - spans[0]["id"]
            for span in spans:
                parent = span["parent"]
                self.spans.append(dict(
                    span, id=span["id"] + offset, worker=True,
                    parent=None if parent is None else parent + offset,
                ))

    def _wrapper(self, name, fn):
        recorder = self

        def traced(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def dump(self, path: str, meta: dict) -> None:
        """Write every span, with its self time, as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "spans": with_self_time(self.spans)}, handle)


def with_self_time(spans: list) -> list:
    """Spans plus ``self``: duration minus the time its child spans cover."""
    covered: dict = {}
    for span in spans:
        if span.get("parent") is not None and "dur" in span:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + span["dur"]
    return [
        dict(span, self=span.get("dur", 0.0) - covered.get(span["id"], 0.0))
        for span in spans
    ]


def totals(spans: list) -> dict:
    """Per span name: calls, inclusive and self seconds, shard fields."""
    out: dict = {}
    for span in with_self_time(spans):
        row = out.setdefault(span["name"], {
            "calls": 0, "s": 0.0, "self_s": 0.0, "pools": 0, "busy_s": 0.0,
            "overhead_s": 0.0, "utilisation": [],
        })
        row["calls"] += 1
        row["s"] += span.get("dur", 0.0)
        row["self_s"] += span["self"]
        if span["name"] == "shard.run" and "shards" in span:  # absent if it raised
            row["pools"] += span["shards"] > 1
            row["busy_s"] += span["busy_s"]
            row["overhead_s"] += span["dur"] - span["slowest_s"]
            if span["utilisation"] is not None:
                row["utilisation"].append(span["utilisation"])
    return out
