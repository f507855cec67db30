"""service_mix: a ``python -m repro serve`` daemon and one client process.

The client holds two keep-alive connections, one per thread, and runs a
closed loop on each: a job is ``POST /jobs``, polling ``GET /jobs/<id>``
until it is done, then ``GET /jobs/<id>/result`` and
``GET /jobs/<id>/waveforms``.  A ``dup`` request posts the same spec twice
back to back on one connection before polling either.
"""

from __future__ import annotations

import hashlib
import http.client
import io
import json
import re
import select
import subprocess
import threading
import time

import numpy as np

import checks
import layers
import memory
import specs

CONNECTIONS = 2
POLL_S = 0.01
HTTP_TIMEOUT_S = 120.0


class Client:
    """One keep-alive HTTP connection to the daemon."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)

    def request(self, method: str, path: str, body: bytes = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.getheader("X-Repro-Cache-Hit"), response.read()

    def json(self, path: str) -> dict:
        status, _, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


class Daemon:
    """A daemon subprocess; its access log goes to ``log_path``."""

    def __init__(self, argv, env, cwd, log_path, timeout=60.0):
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                                     stderr=self._log)
        line = read_line(self.proc, timeout)
        found = re.search(rb"http://([0-9.]+):([0-9]+)/", line)
        if found is None:
            self.stop()
            raise RuntimeError(f"daemon did not announce its address: {line[:200]!r}")
        self.host, self.port = found.group(1).decode(), int(found.group(2))

    def wait_healthy(self, timeout=60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                client = Client(self.host, self.port)
                try:
                    if client.request("GET", "/healthz")[0] == 200:
                        return
                finally:
                    client.close()
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.02)

    def stop(self, timeout=30.0) -> None:
        """SIGTERM, then SIGKILL if it does not end.

        Not SIGINT: a process started with SIGINT ignored, as a shell's
        background job is, passes that on and the daemon never sees it.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def read_line(proc, timeout: float) -> bytes:
    """The child's next stdout line, or ``b""`` after ``timeout`` seconds."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else b""


def warm_up(daemon: Daemon) -> None:
    """Run the workload's warm-up jobs; each must succeed."""
    client = Client(daemon.host, daemon.port)
    try:
        for spec in specs.warmup_specs("service_mix"):
            record, = _run_item(client, {"spec": spec, "copies": 1})
            if not record["ok"]:
                raise RuntimeError(f"warm-up job failed: {record['problems']}")
    finally:
        client.close()


def _job(client: Client, start: float, status: int, reply: bytes) -> dict:
    """Finish a posted job: poll, then fetch its result and its waveforms."""
    if status not in (200, 202):
        return {"ok": False, "latency": time.perf_counter() - start,
                "problems": [f"POST /jobs answered {status}: {reply[:200]!r}"]}
    info = json.loads(reply)
    state, job_id = info["state"], info["job_id"]
    while state not in ("done", "failed"):
        time.sleep(POLL_S)
        state = client.json(f"/jobs/{job_id}")["state"]
    result_status, hit, result = client.request("GET", f"/jobs/{job_id}/result")
    npz_status, _, npz = client.request("GET", f"/jobs/{job_id}/waveforms")
    end = time.perf_counter()
    problems = [] if state == "done" else [f"job {job_id} {state}"]
    if result_status != 200 or npz_status != 200:
        problems.append(f"/result answered {result_status}, /waveforms {npz_status}")
    return {
        "ok": not problems, "problems": problems, "latency": end - start, "end": end,
        "job_id": job_id, "spec_hash": info["spec_hash"], "hit": hit == "1",
        "result": result, "npz": npz,
    }


def _run_item(client: Client, item: dict) -> list:
    body = json.dumps(item["spec"]).encode()
    posts = []
    for _ in range(item["copies"]):
        start = time.perf_counter()
        status, _, reply = client.request("POST", "/jobs", body)
        posts.append((start, status, reply))
    return [_job(client, *posted) for posted in posts]


def run_window(daemon: Daemon, seed: int, seconds: float) -> dict:
    """Both connections run the seeded stream for ``seconds``."""
    stream = specs.service_stream(seed)
    lock = threading.Lock()
    done: dict = {}
    records: list = []
    bodies: dict = {}      # spec hash -> first (result, npz, duration) fetched
    start = time.perf_counter()

    def connection():
        client = Client(daemon.host, daemon.port)
        try:
            while True:
                with lock:
                    if time.perf_counter() - start >= seconds:
                        return
                    item = next(stream)
                    done[item["index"]] = threading.Event()
                try:
                    if item["kind"] == "repeat":
                        done[item["ref"]].wait(HTTP_TIMEOUT_S)
                    try:
                        jobs = _run_item(client, item)
                    except (OSError, http.client.HTTPException, ValueError, RuntimeError) as exc:
                        client.close()
                        client = Client(daemon.host, daemon.port)
                        jobs = [{"ok": False, "latency": 0.0, "end": time.perf_counter(),
                                 "problems": [f"{type(exc).__name__}: {exc}"]}]
                finally:
                    done[item["index"]].set()
                for job in jobs:
                    job.update(shape=item["shape"], kind=item["kind"],
                               scenarios=item["scenarios"])
                    result, npz = job.pop("result", None), job.pop("npz", None)
                    if job["ok"]:
                        job["sha"] = hashlib.sha256(result).hexdigest()
                        job["json_bytes"], job["npz_bytes"] = len(result), len(npz)
                        with lock:
                            bodies.setdefault(job["spec_hash"],
                                              (result, npz, item["spec"]["duration"]))
                with lock:
                    records.extend(jobs)
        finally:
            client.close()

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = max(job["end"] for job in records) - start
    return {"records": records, "bodies": bodies, "window_s": window}


def verify(records: list, bodies: dict) -> dict:
    """Hits byte-identical to their miss; artifacts equal to the JSON.

    Returns the program's counters of every solved result, by hash.
    """
    counters = {}
    first_sha = {h: hashlib.sha256(result).hexdigest() for h, (result, _, _) in bodies.items()}
    for job in records:
        if job["ok"] and job["sha"] != first_sha[job["spec_hash"]]:
            job["ok"] = False
            job["problems"].append("result body differs from the first body of its spec")
    bad = set()
    for spec_hash, (result, npz, duration) in bodies.items():
        doc = json.loads(result)
        with np.load(io.BytesIO(npz)) as archive:
            problems = checks.arrays_equal(doc, archive)
        problems += checks.waveform_problems(doc["times"], doc["waveforms"], duration)
        if problems:
            bad.add(spec_hash)
        counters[spec_hash] = layers.job_counters(doc.get("perf_stats") or {}, doc["engine"])
    for job in records:
        if job.get("spec_hash") in bad:
            job["ok"] = False
            job["problems"].append("result or waveforms failed their checks")
    return counters


def service_timings(client: Client, records: list) -> None:
    """Queue wait, solve time and client overhead from each job's status."""
    for job in records:
        if "job_id" not in job:
            continue
        status = client.json(f"/jobs/{job['job_id']}")
        job["queue_wait_s"] = status["started_at"] - status["submitted_at"]
        job["solve_s"] = status["finished_at"] - status["started_at"]
        job["overhead_s"] = job["latency"] - (status["finished_at"] - status["submitted_at"])


def run_phase(argv, env, cwd, log_path, seed: int, seconds: float) -> dict:
    """Launch, warm up, run one window, collect, stop: one daemon's life."""
    launched = time.perf_counter()
    daemon = Daemon(argv, env, cwd, log_path)
    try:
        daemon.wait_healthy()
        warm_up(daemon)
        setup_s = time.perf_counter() - launched
        client = Client(daemon.host, daemon.port)
        try:
            before = client.json("/stats")["jobs"]["solves"]
            sampler = memory.PeakSampler(daemon.proc.pid)
            try:
                window = run_window(daemon, seed, seconds)
            finally:
                peak = sampler.stop()
            solves = client.json("/stats")["jobs"]["solves"] - before
            service_timings(client, window["records"])
        finally:
            client.close()
    finally:
        daemon.stop()
    counters = verify(window["records"], window.pop("bodies"))
    window.update(setup_s=setup_s, peak_rss_mb=peak, solves=solves, counters=counters)
    return window


def setup_only(argv, env, cwd, log_path) -> float:
    """Launch-to-ready seconds of one daemon that then shuts down."""
    launched = time.perf_counter()
    daemon = Daemon(argv, env, cwd, log_path)
    try:
        daemon.wait_healthy()
        warm_up(daemon)
        return time.perf_counter() - launched
    finally:
        daemon.stop()
