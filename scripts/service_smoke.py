"""CI smoke of the service daemon: boot, round-trip, cache-hit, shutdown.

Starts ``python -m repro serve`` as a real subprocess (the exact artifact
a deployment runs), then drives the documented client workflow against
it over one keep-alive HTTP connection, as a real client does:

1. wait for ``GET /healthz``;
2. time 20 ``GET /healthz`` on the connection: the median must stay
   under 15 ms (a reply held back by Nagle's algorithm costs ~40 ms);
3. ``POST /jobs?quick=1`` with ``examples/jobs/linear_link.json``, poll
   ``GET /jobs/<id>`` to completion and assert a healthy run;
4. fetch ``GET /jobs/<id>/result`` and ``/waveforms`` and sanity-check
   both artifacts;
5. resubmit the identical spec and assert the content-addressed cache
   served it: ``cache_hit`` true, ``solves`` still 1, response bytes
   identical;
6. flip one byte of the stored NPZ (the store root is in ``/healthz``)
   and assert that ``/waveforms`` answers 410; resubmit and assert a
   miss (``cache_hit`` false, ``solves`` 2) whose ``/waveforms`` decodes
   to the arrays of the first fetch;
7. post two distinct variants back to back; both must complete;
8. SIGTERM the daemon: it must exit cleanly, and (on Linux) no process of
   its tree — the solver processes included — may survive it by 5 s.

Exit code 0 on success; any assertion or timeout fails the step.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [job.json]
"""

from __future__ import annotations

import http.client
import io
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_JOB = os.path.join(REPO, "examples", "jobs", "linear_link.json")
STARTUP_TIMEOUT = 30.0
JOB_TIMEOUT = 120.0
#: median bound on a keep-alive ``GET /healthz`` round trip
KEEP_ALIVE_MEDIAN_S = 0.015
#: how long a process of the daemon's tree may outlive a SIGTERM
ORPHAN_GRACE_S = 5.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Client:
    """One keep-alive HTTP connection to the daemon."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def request(self, method: str, path: str, document: dict = None):
        body = None if document is None else json.dumps(document).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def json(self, method: str, path: str, document: dict = None):
        status, body = self.request(method, path, document)
        return status, json.loads(body)

    def wait_for_job(self, job_id: str) -> dict:
        deadline = time.monotonic() + JOB_TIMEOUT
        while time.monotonic() < deadline:
            _status, doc = self.json("GET", f"/jobs/{job_id}")
            if doc["state"] in ("done", "failed"):
                return doc
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not finish within {JOB_TIMEOUT}s")


def flip_byte(path: str, offset: int) -> None:
    """Corrupt one byte of a file in place."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0x01]))


def wait_for_daemon(base: str, process: subprocess.Popen) -> None:
    deadline = time.monotonic() + STARTUP_TIMEOUT
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(f"daemon exited early with code {process.returncode}")
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=30) as response:
                health = json.loads(response.read())
            assert response.status == 200 and health["status"] == "ok", health
            return
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.1)
    raise AssertionError(f"daemon not reachable within {STARTUP_TIMEOUT}s")


def process_tree(pid: int) -> list:
    """``pid`` and its descendants, from ``/proc`` (just ``pid`` elsewhere)."""
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as handle:
                    todo.extend(int(child) for child in handle.read().split())
            except OSError:
                pass
    return tree


def alive(pid: int) -> bool:
    """Whether ``pid`` is a running, not zombie, process (Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def main() -> int:
    job_path = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_JOB
    with open(job_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)

    port = free_port()
    base = f"http://127.0.0.1:{port}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    scratch = None
    if "REPRO_CACHE_DIR" not in env:
        scratch = tempfile.mkdtemp(prefix="repro-smoke-")
        env["REPRO_CACHE_DIR"] = scratch
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port), "--workers", "2"],
        env=env, cwd=REPO,
    )
    client = None
    try:
        wait_for_daemon(base, process)
        client = Client(port)

        # keep-alive replies are not held back
        latencies = []
        for _ in range(20):
            start = time.perf_counter()
            status, _body = client.request("GET", "/healthz")
            latencies.append(time.perf_counter() - start)
            assert status == 200, status
        median = statistics.median(latencies)
        assert median < KEEP_ALIVE_MEDIAN_S, f"keep-alive GET /healthz median {median:.4f}s"

        # submit -> poll -> fetch
        status, submitted = client.json("POST", "/jobs?quick=1", spec)
        assert status in (200, 202), (status, submitted)
        doc = client.wait_for_job(submitted["job_id"])
        assert doc["state"] == "done", doc
        assert doc["health"]["ok"] is True, doc

        status, body = client.request("GET", f"/jobs/{submitted['job_id']}/result")
        assert status == 200, status
        result = json.loads(body)
        assert result["waveforms"] and all(result["waveforms"].values()), "empty waveforms"
        assert len(result["times"]) == result["n_samples"] > 0

        import numpy as np

        status, npz_body = client.request("GET", f"/jobs/{submitted['job_id']}/waveforms")
        assert status == 200, status
        archive = np.load(io.BytesIO(npz_body))
        assert "times" in archive.files and len(archive.files) >= 2, archive.files

        # identical resubmission: zero additional solver work
        _status, resubmitted = client.json("POST", "/jobs?quick=1", spec)
        assert resubmitted["cache_hit"] is True, resubmitted
        assert resubmitted["state"] == "done", resubmitted
        _status, body2 = client.request("GET", f"/jobs/{resubmitted['job_id']}/result")
        assert body2 == body, "cached result is not byte-identical"
        _status, health = client.json("GET", "/healthz")
        assert health["jobs"]["solves"] == 1, health["jobs"]
        assert health["jobs"]["cache_hits"] == 1, health["jobs"]

        # a corrupt stored archive: 410, then a miss that rewrites the entry
        spec_hash = submitted["spec_hash"]
        npz_path = os.path.join(REPO, health["result_store"]["root"], spec_hash[:2],
                                f"{spec_hash}.npz")
        flip_byte(npz_path, os.path.getsize(npz_path) // 2)
        status, _body = client.request("GET", f"/jobs/{submitted['job_id']}/waveforms")
        assert status == 410, f"a corrupt archive was answered with {status}"
        _status, repaired = client.json("POST", "/jobs?quick=1", spec)
        doc = client.wait_for_job(repaired["job_id"])
        assert doc["state"] == "done" and doc["cache_hit"] is False, doc
        _status, health = client.json("GET", "/healthz")
        assert health["jobs"]["solves"] == 2, health["jobs"]
        status, npz_body2 = client.request("GET", f"/jobs/{repaired['job_id']}/waveforms")
        assert status == 200, status
        archive2 = np.load(io.BytesIO(npz_body2))
        arrays = [name for name in archive.files if name != "meta_json"]  # meta has wall times
        assert sorted(archive2.files) == sorted(archive.files), archive2.files
        assert all(np.array_equal(archive[name], archive2[name]) for name in arrays), \
            "the re-solved archive differs from the first"

        # two distinct specs back to back: both solve
        variants = [dict(spec, label=f"{spec.get('label') or 'job'} ({tag})") for tag in "ab"]
        ids = [client.json("POST", "/jobs?quick=1", variant)[1]["job_id"] for variant in variants]
        for job_id in ids:
            doc = client.wait_for_job(job_id)
            assert doc["state"] == "done" and doc["cache_hit"] is False, doc
        _status, health = client.json("GET", "/healthz")
        assert health["jobs"]["solves"] == 4, health["jobs"]
        client.conn.close()

        # SIGTERM takes the Ctrl-C path and leaves no process behind
        tree = process_tree(process.pid)
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0, f"daemon exited with {process.returncode}"
        deadline = time.monotonic() + ORPHAN_GRACE_S
        while any(alive(pid) for pid in tree) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in tree if alive(pid)]
        assert not survivors, f"processes outlived the daemon: {survivors}"

        print(f"service-smoke ok: {len(result['waveforms'])} waveforms x "
              f"{result['n_samples']} samples; keep-alive median {median * 1e3:.1f} ms; "
              f"5 submissions, {health['jobs']['solves']} solves, "
              f"{health['jobs']['cache_hits']} cache hit, a corrupt archive "
              f"answered 410 and re-solved; {len(tree)} processes gone after SIGTERM")
        return 0
    finally:
        if client is not None:
            client.conn.close()
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
