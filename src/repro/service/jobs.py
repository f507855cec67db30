"""Job lifecycle of the simulation service: queue, workers, dedup, cache.

A *job* is one submitted :class:`~repro.api.spec.SimulationSpec` moving
through ``queued → running → done`` (or ``failed``).  The
:class:`JobManager` owns that lifecycle for an entire daemon process:

* a bounded pool of worker threads drains one in-process FIFO queue —
  submissions never block on solver work;
* each worker thread hands its job to a pool of *solver processes*, which
  run it end to end: :func:`repro.api.run`, the result's one encoding to
  JSON and NPZ bytes, the scenario-failure check and the store write.  The
  solves therefore never compete with the HTTP threads (or each other) for
  the daemon's GIL, and the daemon holds no result: a job keeps its hash
  and a small status summary, and ``/result`` / ``/waveforms`` send the
  stored bytes, which the daemon checks but never parses;
* every job is content-addressed by ``spec.content_hash()``: a hash whose
  clean result is already known (in the :class:`~repro.service.store.ResultStore`
  on disk, whose entry head carries the status summary, or in this
  process's memory when the disk store is disabled) completes instantly
  with ``cache_hit=True`` and *exactly zero* solver work;
* concurrent duplicates are single-flighted: while one worker solves a
  hash, workers holding the same hash wait for it and then serve the
  stored result instead of re-solving;
* failures surface the PR 6 taxonomy — a typed
  :class:`~repro.resilience.SolverError` (or a partial sweep with failed
  scenarios) marks the job ``failed`` and attaches the structured
  :class:`~repro.resilience.SolveFailure` records; failed and partial
  results are **never** cached, so a retry after a transient fault gets a
  fresh solve.  A solver process that dies (killed, crashed) breaks the
  pool: the jobs then in flight fail, and the next job gets a new pool.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import importlib
import io
import os
import queue
import signal
import sys
import threading
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.service.store import ResultStore

__all__ = ["Job", "JobManager", "JOB_STATES", "result_summary"]

#: the lifecycle states a job moves through
JOB_STATES = ("queued", "running", "done", "failed")

#: imported before the solver processes fork, so they share these pages
_ENGINE_MODULES = (
    "repro.api",
    "repro.circuits.testbenches",
    "repro.experiments.devices",
    "repro.experiments.fig4_rc_load",
    "repro.structures.validation_line",
    "repro.sweep.links",
    "repro.sweep.montecarlo",
    "repro.sweep.shard",
)


def result_summary(document: dict) -> dict:
    """The fields a result adds to its job's status document.

    ``document`` is a ``Result.to_dict()`` document (with or without its
    waveforms): the engine, ``n_samples``, the ``RunHealth`` summary, the
    shard telemetry of a sharded sweep and the Monte Carlo headline.
    """
    summary = {"engine": document.get("engine"), "n_samples": document.get("n_samples")}
    perf = document.get("perf_stats") or {}
    if perf.get("health") is not None:
        summary["health"] = perf["health"]
    # A sharded sweep (engine.workers > 1) carries its fan-out telemetry.
    if "shards" in perf:
        summary["shards"] = perf["shards"]
        summary["parallel_efficiency"] = perf.get("parallel_efficiency")
    # A Monte Carlo sweep (stats block) carries its statistical summary in
    # meta; keep the headline numbers.
    mc = (document.get("meta") or {}).get("montecarlo")
    if mc is not None:
        summary["montecarlo"] = {
            key: mc.get(key) for key in ("samples", "seed", "generated", "completed", "worst")
        }
    return summary


@dataclasses.dataclass
class Job:
    """One submitted spec and everything the daemon knows about it.

    Attributes
    ----------
    job_id:
        Opaque id handed back by ``POST /jobs`` (unique per daemon).
    spec:
        The validated :class:`~repro.api.spec.SimulationSpec` to run.
    spec_hash:
        ``spec.content_hash()`` — the cache key of the result.
    state:
        One of :data:`JOB_STATES`.
    cache_hit:
        The result was served from the content-addressed store instead of
        being solved.
    summary:
        :func:`result_summary` of the result (present when ``done``, and
        for partial sweeps that ``failed`` with some scenarios completed).
    failures:
        Structured :meth:`~repro.resilience.SolveFailure.to_dict` records
        of a ``failed`` job.
    error:
        Human-readable failure summary (``failed`` only).
    partial:
        The result JSON and NPZ bytes of a partial sweep, which the store
        never keeps.
    """

    job_id: str
    spec: Any
    spec_hash: str
    state: str = "queued"
    cache_hit: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    summary: Optional[dict] = None
    failures: List[dict] = dataclasses.field(default_factory=list)
    error: Optional[str] = None
    partial: Optional[Tuple[bytes, bytes]] = None

    def status_dict(self) -> dict:
        """The JSON document of ``GET /jobs/<id>`` (no waveforms)."""
        doc = {
            "job_id": self.job_id,
            "state": self.state,
            "kind": self.spec.kind,
            "label": self.spec.label,
            "spec_hash": self.spec_hash,
            "cache_hit": self.cache_hit,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.summary is not None:
            doc.update(self.summary)
        if self.state == "failed":
            doc["error"] = self.error
            doc["failures"] = list(self.failures)
            doc["partial_result"] = self.partial is not None
        return doc


# ---------------------------------------------------------------------------
# solver-process side
# ---------------------------------------------------------------------------

class _Outcome(NamedTuple):
    """What a solver process returns for one job."""

    summary: Optional[dict] = None
    #: failure records of a partial sweep's failed scenarios
    failures: Tuple[dict, ...] = ()
    #: result JSON and NPZ bytes when the store did not keep them
    artifacts: Optional[Tuple[bytes, bytes]] = None
    #: an untyped error, as text (any exception need not survive pickling)
    error: Optional[str] = None


def _init_solver(parent_pid: int) -> None:
    """Solver-process initializer: Ctrl-C is the daemon's, SIGTERM ends it."""
    from repro.sweep.shard import _die_with_parent

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _die_with_parent(parent_pid)


def _release_heap() -> None:
    """Hand the heap a finished job freed back to the OS (glibc only).

    Otherwise a solver process keeps its high-water heap for life: about
    5 MB more per process after a model fit, measured with
    ``smaps_rollup``.  The call takes about 0.1 ms.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):  # not glibc
        return
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


def _solve_job(spec, spec_hash: str, store: ResultStore, fault_list) -> _Outcome:
    """Run one job in a solver process, then hand its freed heap back."""
    try:
        return _run_job(spec, spec_hash, store, fault_list)
    finally:
        _release_heap()


def _run_job(spec, spec_hash: str, store: ResultStore, fault_list) -> _Outcome:
    """Solve, encode, check and store one job.

    ``fault_list`` is the fault plan active in the daemon at dispatch
    (``None`` for none); it is installed for this job only.  A typed
    :class:`~repro.resilience.SolverError` propagates to the daemon with
    its record.
    """
    from repro.api import run
    from repro.resilience import SolverError, faults

    if fault_list is None:
        faults.clear_plan()
        plan = contextlib.nullcontext()
    else:
        plan = faults.injected(*fault_list)
    try:
        with plan:
            result = run(spec)
    except SolverError:
        raise
    except Exception as exc:
        return _Outcome(error=f"{type(exc).__name__}: {exc}")
    head = result.to_dict(include_waveforms=False)
    outcome = _Outcome(summary=result_summary(head), failures=tuple(_scenario_failures(head)))
    # The result's one encoding.  Only a clean result is stored; a partial
    # sweep, or a result the store did not keep, travels back as these bytes.
    buffer = io.BytesIO()
    result.save_npz(buffer)
    artifacts = (result.to_json_bytes(), buffer.getvalue())
    if not outcome.failures and store.put(spec_hash, outcome.summary, *artifacts) is not None:
        return outcome
    return outcome._replace(artifacts=artifacts)


def _scenario_failures(document: dict) -> List[dict]:
    """Failure records of a partial sweep's failed scenarios."""
    meta = document.get("meta") or {}
    status = meta.get("scenario_status") or {}
    failed = sorted(name for name, st in status.items() if st == "failed")
    if not failed:
        return []
    records = meta.get("failures") or {}
    out = []
    for name in failed:
        record = dict(records.get(name) or {})
        record.setdefault("scenario", name)
        record.setdefault("kind", "unknown")
        out.append(record)
    return out


def _start_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` solver processes.

    Forked when this process is single-threaded (``sweep.shard``'s rule),
    else spawned.  The engine modules are imported and every live object
    frozen out of the garbage collector first, so a forked solver's
    collections do not write to — and so unshare — the daemon's pages.
    """
    from repro.sweep.shard import _mp_context

    for name in _ENGINE_MODULES:
        importlib.import_module(name)
    gc.freeze()
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=_mp_context(),
        initializer=_init_solver, initargs=(os.getpid(),),
    )


def _stop_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting for the solves it is running."""
    # Before Python 3.14 (terminate_workers) the executor has no public
    # handle on a busy worker.
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# the daemon side
# ---------------------------------------------------------------------------

class JobManager:
    """Worker threads + solver processes + content-addressed dedup.

    Parameters
    ----------
    store:
        The :class:`~repro.service.store.ResultStore` results persist to
        (``None`` builds the default store).
    workers:
        Solver-process count (at least 1), with one worker thread each;
        the queue itself is unbounded.

    The solver processes start here, before the worker threads (forked
    when this process is single-threaded, else spawned), and die with the
    thread that built the manager (``PR_SET_PDEATHSIG`` on Linux), so
    build it on a thread that outlives it.
    """

    def __init__(self, store: Optional[ResultStore] = None, workers: int = 2):
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers!r}")
        self.store = store if store is not None else ResultStore()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        #: clean results the store did not keep (it is disabled, or its
        #: write failed): hash -> (summary, result JSON, NPZ)
        self._memory: Dict[str, Tuple[dict, bytes, bytes]] = {}
        self._inflight: Dict[str, threading.Event] = {}
        self._stats = {
            "submitted": 0, "solves": 0, "cache_hits": 0,
            "completed": 0, "failed": 0,
        }
        self._closed = False
        self._pool_lock = threading.Lock()
        self._pool = _start_pool(workers)
        self._pool.submit(os.getpid).result()  # a fork pool forks all its workers now
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"repro-worker-{k}", daemon=True)
            for k in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- public API --------------------------------------------------------
    def submit(self, spec) -> Job:
        """Queue a spec (or complete it instantly from the result cache)."""
        if self._closed:
            raise RuntimeError("the job manager is shut down")
        job = Job(
            job_id=uuid.uuid4().hex[:12],
            spec=spec,
            spec_hash=spec.content_hash(),
            submitted_at=time.time(),
        )
        cached = self._lookup_cached(job.spec_hash)
        with self._lock:
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            self._stats["submitted"] += 1
            if cached is not None:
                self._complete_from_cache(job, cached)
                return job
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        """The job of an id, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def stats(self) -> dict:
        """Daemon-lifetime counters (submitted/solves/cache_hits/...)."""
        with self._lock:
            stats = dict(self._stats)
        stats["queued"] = self._queue.qsize()
        stats["workers"] = len(self._workers)
        return stats

    def artifact(self, job: Job, npz: bool = False) -> Optional[bytes]:
        """A finished job's result JSON (or NPZ) bytes, or ``None``.

        Read from the store, unless the daemon holds them: a partial sweep,
        or a clean result the store did not keep.  ``None`` for a failed
        job without a result, and for a result gone from the store.
        """
        index = 1 if npz else 0
        if job.partial is not None:
            return job.partial[index]
        if job.state != "done":
            return None
        with self._lock:
            held = self._memory.get(job.spec_hash)
        if held is not None:
            return held[1 + index]
        if npz:
            return self.store.npz(job.spec_hash)
        return self.store.body(job.spec_hash)

    def wait(self, job_id: str, timeout: float = 60.0, poll: float = 0.02) -> Job:
        """Block until a job leaves the queued/running states (test helper)."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
            if job.state in ("done", "failed"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {job.state} after {timeout}s")
            time.sleep(poll)

    def close(self, timeout: float = 10.0) -> None:
        """Stop the workers, then the solver processes.

        Queued jobs not yet started are abandoned; running solves get
        ``timeout`` seconds to finish before their processes are stopped.
        """
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        deadline = time.monotonic() + timeout
        for thread in self._workers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._pool_lock:
            _stop_pool(self._pool)

    # -- cache handling ----------------------------------------------------
    def _lookup_cached(self, spec_hash: str) -> Optional[dict]:
        """The status summary of a hash whose clean result is known.

        Uncounted: a job is looked up on submission and again by its
        worker, so the store's hit and miss counters are bumped only at
        the lookup that decides the job (:meth:`_complete_from_cache`
        and the solve branch of :meth:`_process`).
        """
        summary = self.store.get(spec_hash, count=False)
        if summary is not None:
            return summary
        with self._lock:
            held = self._memory.get(spec_hash)
        return None if held is None else held[0]

    def _complete_from_cache(self, job: Job, summary: dict) -> None:
        # caller holds self._lock
        job.summary = summary
        job.cache_hit = True
        job.state = "done"
        job.started_at = job.finished_at = time.time()
        self._stats["cache_hits"] += 1
        self._stats["completed"] += 1
        self.store.stats["hits"] += 1

    # -- worker side -------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None or self._closed:
                return
            try:
                self._process(job)
            except BaseException as exc:  # never kill a worker thread
                with self._lock:
                    if job.state not in ("done", "failed"):
                        job.state = "failed"
                        job.error = f"internal worker error: {exc!r}"
                        job.finished_at = time.time()
                        self._stats["failed"] += 1

    def _process(self, job: Job) -> None:
        # single-flight: if another worker is already solving this hash,
        # wait for it and serve its stored result.
        while True:
            cached = self._lookup_cached(job.spec_hash)
            with self._lock:
                if cached is not None:
                    job.state = "running"
                    self._complete_from_cache(job, cached)
                    return
                event = self._inflight.get(job.spec_hash)
                if event is None:
                    self._inflight[job.spec_hash] = threading.Event()
                    self.store.stats["misses"] += 1
                    break
            # re-check the cache the owner just populated; a failed owner
            # stores nothing, and then this worker takes over the solve
            event.wait()
        try:
            self._solve(job)
        finally:
            with self._lock:
                event = self._inflight.pop(job.spec_hash, None)
            if event is not None:
                event.set()

    def _dispatch(self, *args):
        """Submit a call to the solver pool, replacing a broken pool first."""
        with self._pool_lock:
            try:
                return self._pool.submit(*args)
            except BrokenProcessPool:
                self._pool = _start_pool(len(self._workers))
                return self._pool.submit(*args)

    def _solve(self, job: Job) -> None:
        from repro.resilience import SolverError, faults

        plan = faults.PLAN
        with self._lock:
            job.state = "running"
            job.started_at = time.time()
            self._stats["solves"] += 1
        store = ResultStore(root=self.store.root, enabled=self.store.enabled)
        try:
            outcome = self._dispatch(
                _solve_job, job.spec, job.spec_hash, store,
                None if plan is None else list(plan.faults),
            ).result()
        except SolverError as exc:
            self._fail(job, [exc.failure.to_dict()], exc.failure.describe())
            return
        except BrokenProcessPool:
            reason = "the daemon shut down" if self._closed else "the solver process died"
            self._fail(job, [], f"{reason} during the job")
            return
        if outcome.error is not None:
            self._fail(job, [], outcome.error)
            return
        if outcome.failures:
            # A partial sweep: the result is retrievable but the job is
            # failed (mirrors the CLI's exit-code-3 contract) — and it is
            # never cached, so a resubmission re-attempts the solve.
            with self._lock:
                job.summary = outcome.summary
                job.partial = outcome.artifacts
            self._fail(
                job, list(outcome.failures),
                f"{len(outcome.failures)} scenario(s) failed: "
                + ", ".join(sorted(f.get("scenario") or "?" for f in outcome.failures)),
            )
            return
        with self._lock:
            if outcome.artifacts is None:
                # the put ran in the solver process, on its copy of the store
                self.store.stats["puts"] += 1
            else:
                self._memory[job.spec_hash] = (outcome.summary, *outcome.artifacts)
            job.summary = outcome.summary
            job.state = "done"
            job.finished_at = time.time()
            self._stats["completed"] += 1

    def _fail(self, job: Job, failures: List[dict], error: str) -> None:
        with self._lock:
            job.failures = failures
            job.error = error
            job.state = "failed"
            job.finished_at = time.time()
            self._stats["failed"] += 1
