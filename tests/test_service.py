"""End-to-end tests of the simulation service daemon (:mod:`repro.service`).

Every test talks real HTTP to a live :class:`~repro.service.JobServer`
bound to an ephemeral port — the same transport a remote client uses.
The acceptance contract of the content-addressed cache is pinned here:
submitting the same spec twice returns *byte-identical* results with
exactly zero additional solver work (the engine adapter is counted, not
trusted), and the duplicate is served from cache even after the daemon
restarts.
"""

from __future__ import annotations

import dataclasses
import http.client
import io
import json
import multiprocessing
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import types
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import EngineOptions
from repro.api import engines as engines_mod
from repro.resilience import faults
from repro.service import JobServer, ResultStore

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS_DIR = os.path.join(REPO, "examples", "jobs")

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads the process tree from /proc")


# ---------------------------------------------------------------------------
# HTTP helpers
# ---------------------------------------------------------------------------

def _get(server: JobServer, path: str):
    with urllib.request.urlopen(server.url.rstrip("/") + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get_bytes(server: JobServer, path: str) -> bytes:
    with urllib.request.urlopen(server.url.rstrip("/") + path, timeout=30) as response:
        return response.read()


def _post(server: JobServer, path: str, document: dict):
    request = urllib.request.Request(
        server.url.rstrip("/") + path,
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _wait(server: JobServer, job_id: str, timeout: float = 120.0) -> dict:
    """Poll ``GET /jobs/<id>`` over HTTP until the job finishes."""
    job = server.manager.wait(job_id, timeout=timeout)
    assert job.state in ("done", "failed")
    status, doc = _get(server, f"/jobs/{job_id}")
    assert status == 200
    return doc


# ---------------------------------------------------------------------------
# small, fast job specs
# ---------------------------------------------------------------------------

def _sweep_spec(label: str = "service sweep") -> dict:
    """A two-scenario linear-family sweep: no macromodels, ~100 steps."""
    return {
        "format_version": 1,
        "kind": "sweep",
        "label": label,
        "duration": 1.0e-9,
        "scenarios": [
            {"name": "010/nominal", "bit_pattern": "010"},
            {"name": "010/weak", "bit_pattern": "010", "corner": {"load_resistance": 350.0}},
        ],
        "engine": {"dt": 1e-11, "sweep_family": "linear"},
    }


def _circuit_spec(label: str = "service circuit") -> dict:
    """A short RBF-macromodel circuit transient (~100 steps)."""
    return {
        "format_version": 1,
        "kind": "circuit",
        "label": label,
        "duration": 1.0e-9,
        "engine": {"dt": 1e-11, "variant": "rbf"},
    }


def _daemon(root, workers: int = 2) -> JobServer:
    """A live daemon whose solver processes fork from this process.

    HTTP handler threads of an earlier daemon may still be winding down;
    while one is alive the pool would be spawned, not forked, and would
    not see state the test patched into this process.
    """
    deadline = time.monotonic() + 10.0
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    return JobServer(port=0, workers=workers, store=ResultStore(root=str(root))).start()


@pytest.fixture()
def server(tmp_path):
    """A live daemon on an ephemeral port with a test-local result store."""
    srv = _daemon(tmp_path / "results")
    yield srv
    srv.close()


# ---------------------------------------------------------------------------
# plumbing endpoints
# ---------------------------------------------------------------------------

def test_healthz_and_engines(server):
    status, health = _get(server, "/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["jobs"]["workers"] == 2
    assert health["result_store"]["enabled"] is True

    status, engines = _get(server, "/engines")
    assert status == 200
    kinds = {entry["kind"] for entry in engines["engines"]}
    assert kinds == {"circuit", "fdtd1d", "fdtd3d", "sweep"}
    assert engines["engine_options"] == sorted(
        field.name for field in dataclasses.fields(EngineOptions)
    )


def test_stats_endpoint_reports_result_store(server):
    status, payload = _get(server, "/stats")
    assert status == 200
    assert set(payload) == {"jobs", "result_store"}
    store = payload["result_store"]
    assert store["root"]
    assert isinstance(store["enabled"], bool)
    for counter in ("hits", "misses", "puts"):
        assert isinstance(store[counter], int)


def test_result_store_counters(tmp_path):
    class _FakeResult:
        def to_dict(self):
            return {"waveforms": {"a": [1.0]}, "times": [0.0], "engine": "x"}

        def save_npz(self, handle):
            raise OSError("no artifact in this test")

    store = ResultStore(root=str(tmp_path))
    assert store.get("aa" + "0" * 62) is None
    assert store.stats == {"hits": 0, "misses": 1, "puts": 0}
    body = json.dumps(_FakeResult().to_dict()).encode()
    document = store.put("aa" + "0" * 62, {}, body, b"")  # no archive: save_npz fails
    assert document is not None
    # a put is not counted as a hit
    assert store.stats == {"hits": 0, "misses": 1, "puts": 1}
    assert store.get("aa" + "0" * 62) is not None
    assert store.stats == {"hits": 1, "misses": 1, "puts": 1}


def test_stats_count_each_store_lookup_once(server):
    """misses == solves == puts, hits == store-served submissions."""
    specs = [_sweep_spec(f"counted {k}") for k in range(3)]
    ids = [_post(server, "/jobs", spec)[1]["job_id"] for spec in specs]
    # back-to-back duplicates: served from the store, or single-flighted
    # behind the solve and then served from the store after waiting
    ids += [_post(server, "/jobs", spec)[1]["job_id"] for spec in specs]
    for job_id in ids:
        assert _wait(server, job_id)["state"] == "done"
    resubmitted = [_post(server, "/jobs", spec)[1] for spec in (specs + specs[:1])]
    assert all(job["cache_hit"] for job in resubmitted)
    status, payload = _get(server, "/stats")
    assert status == 200
    jobs, store = payload["jobs"], payload["result_store"]
    solved, served = len(specs), len(specs) + len(resubmitted)
    assert jobs["solves"] == store["misses"] == store["puts"] == solved
    assert jobs["cache_hits"] == store["hits"] == served


def test_invalid_requests(server):
    # malformed spec -> 400 with the validation message, no job created
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/jobs", {"format_version": 1, "kind": "warp-drive"})
    assert err.value.code == 400
    assert "invalid spec" in json.loads(err.value.read())["error"]

    # non-JSON body -> 400
    request = urllib.request.Request(
        server.url.rstrip("/") + "/jobs", data=b"not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=30)
    assert err.value.code == 400

    # unknown job / route -> 404
    for path in ("/jobs/deadbeef", "/jobs/deadbeef/result", "/nope"):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, path)
        assert err.value.code == 404

    status, health = _get(server, "/healthz")
    assert health["jobs"]["submitted"] == 0


@pytest.mark.parametrize("block, key, value", [
    ("link", "z0", float("nan")), ("", "duration", float("inf")),
], ids=["link.z0-nan", "duration-inf"])
def test_non_finite_spec_is_rejected(server, block, key, value):
    # json.loads reads NaN/Infinity; a job holding one must not be queued
    with open(os.path.join(JOBS_DIR, "fdtd1d_link.json")) as handle:
        spec = json.load(handle)
    (spec[block] if block else spec)[key] = value
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/jobs", spec)
    assert err.value.code == 400
    assert "finite" in json.loads(err.value.read())["error"]
    assert server.manager.jobs() == []


def test_monte_carlo_too_short_to_fold_one_eye_is_rejected(server):
    # It used to queue, solve its first round and fail at the eye fold.
    with open(os.path.join(JOBS_DIR, "montecarlo_sweep.json")) as handle:
        spec = json.load(handle)
    spec["duration"] = 3e-9  # stats.t_start 2 ns, 2 ns bits
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/jobs", spec)
    assert err.value.code == 400
    error = json.loads(err.value.read())["error"]
    assert "duration:" in error and "stats.t_start" in error
    assert server.manager.jobs() == []


def test_scenario_device_label_is_rejected(server):
    # The job API never resolved device variants: a rbf sweep naming one
    # used to pass validation, queue, and fail at run with a KeyError.
    spec = _sweep_spec()
    spec["engine"]["sweep_family"] = "rbf"
    spec["scenarios"][0]["device"] = "fast_corner"
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/jobs", spec)
    assert err.value.code == 400
    assert "scenarios[0]: unknown key(s) ['device']" in json.loads(err.value.read())["error"]
    assert server.manager.jobs() == []


# ---------------------------------------------------------------------------
# end-to-end submit -> poll -> fetch
# ---------------------------------------------------------------------------

def test_circuit_job_end_to_end(server):
    status, submitted = _post(server, "/jobs", _circuit_spec())
    assert status == 202
    assert submitted["state"] in ("queued", "running")
    assert submitted["cache_hit"] is False

    doc = _wait(server, submitted["job_id"])
    assert doc["state"] == "done"
    assert doc["kind"] == "circuit"
    assert doc["spec_hash"] == submitted["spec_hash"]
    assert doc["health"]["ok"] is True

    status, result = _get(server, f"/jobs/{submitted['job_id']}/result")
    assert status == 200
    assert result["engine"] == "spice-rbf"
    assert set(result["waveforms"]) >= {"near_end", "far_end"}
    assert len(result["times"]) == result["n_samples"] > 50

    raw = _get_bytes(server, f"/jobs/{submitted['job_id']}/waveforms")
    npz = np.load(io.BytesIO(raw))
    assert "times" in npz.files
    assert "w:far_end" in npz.files
    assert npz["times"].shape == npz["w:far_end"].shape


def test_sweep_job_end_to_end(server):
    status, submitted = _post(server, "/jobs", _sweep_spec())
    assert status == 202
    doc = _wait(server, submitted["job_id"])
    assert doc["state"] == "done"
    assert doc["engine"] == "sweep-linear"

    status, result = _get(server, f"/jobs/{submitted['job_id']}/result")
    assert status == 200
    assert "010/nominal/far" in result["waveforms"]
    assert "010/weak/far" in result["waveforms"]
    assert result["perf_stats"]["shared_factorizations"] >= 1

    status, listing = _get(server, "/jobs")
    assert [j["job_id"] for j in listing["jobs"]] == [submitted["job_id"]]


def test_job_listing_fields_and_state_filter(server):
    """``GET /jobs``: submission order, operator fields, ``?state=`` filter."""
    ids = []
    for label in ("listing-a", "listing-b"):
        status, submitted = _post(server, "/jobs", _sweep_spec(label))
        assert status in (200, 202)
        ids.append(submitted["job_id"])
        _wait(server, submitted["job_id"])

    status, listing = _get(server, "/jobs")
    assert status == 200
    assert [j["job_id"] for j in listing["jobs"]] == ids
    for entry in listing["jobs"]:
        # the operator's view: id, state, hash and timestamps on every row
        assert entry["state"] == "done"
        assert len(entry["spec_hash"]) == 64
        assert entry["submitted_at"] <= entry["finished_at"]

    status, done = _get(server, "/jobs?state=done")
    assert status == 200
    assert [j["job_id"] for j in done["jobs"]] == ids
    status, queued = _get(server, "/jobs?state=queued")
    assert status == 200
    assert queued["jobs"] == []
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/jobs?state=bogus")
    assert excinfo.value.code == 400
    assert "bogus" in json.loads(excinfo.value.read())["error"]


def test_sharded_sweep_job_surfaces_shard_telemetry(server):
    """A sweep with engine.workers=2 fans out in the daemon and reports it.

    RBF family: a linear sweep this short runs in process at any worker
    count, because its pool would not pay.
    """
    spec = _sweep_spec("sharded service sweep")
    spec["engine"].update(workers=2, sweep_family="rbf")
    status, submitted = _post(server, "/jobs", spec)
    assert status in (200, 202)
    doc = _wait(server, submitted["job_id"], timeout=240.0)
    assert doc["state"] == "done"
    # the two scenarios sit in different corner groups -> two shards
    assert doc["shards"] == 2
    assert doc["parallel_efficiency"] is None or 0.0 < doc["parallel_efficiency"] <= 1.0

    status, result = _get(server, f"/jobs/{submitted['job_id']}/result")
    assert status == 200
    assert result["perf_stats"]["shards"] == 2
    assert "010/nominal/far" in result["waveforms"]


# ---------------------------------------------------------------------------
# the content-addressed cache contract
# ---------------------------------------------------------------------------

class _CallLog:
    """Engine calls appended to a file, so solver processes add to it too."""

    def __init__(self, path):
        self.path = path

    def record(self, spec_hash: str) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(f"{spec_hash} {os.getpid()}\n")

    def entries(self) -> list:
        """``(spec_hash, pid)`` of every call so far."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as handle:
            return [tuple(line.split()) for line in handle]

    def __len__(self) -> int:
        return len(self.entries())


@pytest.fixture()
def counted_sweep_engine(monkeypatch, tmp_path):
    """Wrap the sweep adapter so every *actual* solve is counted.

    Request it before ``server``: the solver processes fork with the
    wrapped adapter and record their calls in a file under ``tmp_path``.
    """
    summary, adapter = engines_mod.ENGINES["sweep"]
    calls = _CallLog(str(tmp_path / "engine-calls.txt"))

    def counting_runner(spec, models=None):
        calls.record(spec.content_hash())
        return adapter(spec, models=models)

    monkeypatch.setitem(engines_mod.ENGINES, "sweep", (summary, counting_runner))
    return calls


def test_duplicate_submission_is_served_from_cache(counted_sweep_engine, server):
    spec = _sweep_spec("cache-hit contract")

    status1, first = _post(server, "/jobs", spec)
    _wait(server, first["job_id"])
    status, doc1 = _get(server, f"/jobs/{first['job_id']}")
    assert doc1["cache_hit"] is False

    # identical spec, second submission: done on arrival, zero solver work
    status2, second = _post(server, "/jobs", spec)
    assert status2 == 200
    assert second["state"] == "done"
    assert second["cache_hit"] is True
    assert second["spec_hash"] == first["spec_hash"]
    assert second["job_id"] != first["job_id"]

    status, doc2 = _get(server, f"/jobs/{second['job_id']}")
    assert doc2["cache_hit"] is True

    # the engine adapter ran exactly once: the factorization/accept
    # counters of the second result *cannot* have advanced because no
    # engine call produced them
    assert len(counted_sweep_engine) == 1
    stats = server.manager.stats()
    assert stats["solves"] == 1
    assert stats["cache_hits"] == 1

    body1 = _get_bytes(server, f"/jobs/{first['job_id']}/result")
    body2 = _get_bytes(server, f"/jobs/{second['job_id']}/result")
    assert body1 == body2  # byte-identical, perf_stats included

    result = json.loads(body1)
    assert json.loads(body2)["perf_stats"] == result["perf_stats"]

    npz1 = _get_bytes(server, f"/jobs/{first['job_id']}/waveforms")
    npz2 = _get_bytes(server, f"/jobs/{second['job_id']}/waveforms")
    assert npz1 == npz2


def test_workers_only_variant_is_served_from_cache(counted_sweep_engine, server):
    """engine.workers/shards are outside the hash: a rescheduled rerun hits."""
    spec = _sweep_spec("scheduling knobs are not part of the job")
    _, first = _post(server, "/jobs", spec)
    _wait(server, first["job_id"])

    variant = json.loads(json.dumps(spec))
    variant["engine"].update(workers=2, shards=2)
    status, second = _post(server, "/jobs", variant)
    assert status == 200
    assert second["cache_hit"] is True
    assert second["spec_hash"] == first["spec_hash"]
    assert len(counted_sweep_engine) == 1


def test_cache_survives_daemon_restart(tmp_path, counted_sweep_engine):
    root = str(tmp_path / "results")
    spec = _sweep_spec("restart contract")

    first_daemon = _daemon(root, workers=1)
    try:
        _, first = _post(first_daemon, "/jobs", spec)
        _wait(first_daemon, first["job_id"])
        body1 = _get_bytes(first_daemon, f"/jobs/{first['job_id']}/result")
    finally:
        first_daemon.close()

    # a fresh daemon process-equivalent: new manager, same store directory
    second_daemon = _daemon(root, workers=1)
    try:
        status, second = _post(second_daemon, "/jobs", spec)
        assert status == 200
        assert second["state"] == "done"
        assert second["cache_hit"] is True
        body2 = _get_bytes(second_daemon, f"/jobs/{second['job_id']}/result")
        assert second_daemon.manager.stats()["solves"] == 0
    finally:
        second_daemon.close()

    assert body1 == body2
    assert len(counted_sweep_engine) == 1  # one solve across both daemons


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0x01]))


def _npz_arrays(data: bytes) -> dict:
    """Every array of an NPZ archive but its metadata (which carries wall times)."""
    with np.load(io.BytesIO(data)) as archive:
        return {name: archive[name] for name in archive.files if name != "meta_json"}


@pytest.mark.parametrize("part", ["head", "body", "npz"])
def test_corrupt_entry_answers_410_and_repairs(counted_sweep_engine, server, part):
    """One flipped byte anywhere in a stored entry: 410, removal, a fresh solve."""
    spec = _sweep_spec(f"corrupt {part}")
    _, first = _post(server, "/jobs", spec)
    _wait(server, first["job_id"])
    body = _get_bytes(server, f"/jobs/{first['job_id']}/result")
    npz = _get_bytes(server, f"/jobs/{first['job_id']}/waveforms")

    store, spec_hash = server.manager.store, first["spec_hash"]
    json_path, npz_path = store.json_path(spec_hash), store.npz_path(spec_hash)
    head_size = os.path.getsize(json_path) - len(body)
    offset = {"head": head_size // 2, "body": head_size + len(body) // 2, "npz": len(npz) // 2}
    _flip_byte(npz_path if part == "npz" else json_path, offset[part])

    route = "waveforms" if part == "npz" else "result"
    with pytest.raises(urllib.error.HTTPError) as answered:
        _get_bytes(server, f"/jobs/{first['job_id']}/{route}")
    assert answered.value.code == 410
    assert not os.path.exists(json_path) and not os.path.exists(npz_path)

    _, again = _post(server, "/jobs", spec)
    assert _wait(server, again["job_id"])["cache_hit"] is False
    assert len(counted_sweep_engine) == 2
    fresh = json.loads(_get_bytes(server, f"/jobs/{again['job_id']}/result"))
    assert fresh["times"] == json.loads(body)["times"]
    assert fresh["waveforms"] == json.loads(body)["waveforms"]
    fresh_npz = _npz_arrays(_get_bytes(server, f"/jobs/{again['job_id']}/waveforms"))
    expected = _npz_arrays(npz)
    assert fresh_npz.keys() == expected.keys()
    assert all(np.array_equal(fresh_npz[name], expected[name]) for name in expected)


def test_store_hit_check_reads_only_the_head(tmp_path):
    store = ResultStore(root=str(tmp_path))
    spec_hash = "ab" + "0" * 62
    summary = {"engine": "unit", "n_samples": 1}
    body = json.dumps({"times": [0.0], "waveforms": {"w": [1.0]}}).encode()
    buffer = io.BytesIO()
    np.savez(buffer, times=np.zeros(1))
    assert store.put(spec_hash, summary, body, buffer.getvalue()) is not None
    path = store.json_path(spec_hash)
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - len(body) // 2)
    assert store.get(spec_hash) == summary
    assert store.body(spec_hash) is None
    assert not os.path.exists(path) and store.npz_path(spec_hash) is None


@pytest.mark.parametrize("case", ["kept", "disabled", "partial"])
def test_each_solve_encodes_once(monkeypatch, tmp_path, case):
    """A solver process encodes a result once, whether the store keeps it or not."""
    from repro.api import Result, spec_from_dict
    from repro.service import jobs

    documents, archives = [], []
    to_dict, save_npz = Result.to_dict, Result.save_npz

    def counting_to_dict(self, include_waveforms=True):
        document = to_dict(self, include_waveforms)
        if include_waveforms:
            documents.append(document)
        return document

    def counting_save_npz(self, handle):
        save_npz(self, handle)
        archives.append(handle.getvalue())

    monkeypatch.setattr(Result, "to_dict", counting_to_dict)
    monkeypatch.setattr(Result, "save_npz", counting_save_npz)
    spec = spec_from_dict(_sweep_spec(f"encoded once: {case}"))
    spec_hash = spec.content_hash()
    store = ResultStore(root=str(tmp_path), enabled=case != "disabled")
    plan = [faults.Fault("nan", scenario="010/weak", count=None)] if case == "partial" else None

    outcome = jobs._run_job(spec, spec_hash, store, plan)
    assert len(documents) == 1 and len(archives) == 1
    assert bool(outcome.failures) == (case == "partial")
    encoded = (json.dumps(documents[0]).encode(), archives[0])
    if case == "kept":
        assert outcome.artifacts is None
        assert (store.body(spec_hash), store.npz(spec_hash)) == encoded
    else:
        assert outcome.artifacts == encoded
        assert store.get(spec_hash) is None


def test_failed_jobs_are_not_cached(counted_sweep_engine, server):
    spec = _sweep_spec("failure is not cached")
    with faults.injected(faults.Fault("nan", count=None)):
        _, failed = _post(server, "/jobs", spec)
        doc = _wait(server, failed["job_id"])
        assert doc["state"] == "failed"
    # after the fault clears, the same spec solves fresh (no poisoned cache)
    _, retry = _post(server, "/jobs", spec)
    doc = _wait(server, retry["job_id"])
    assert doc["state"] == "done"
    assert doc["cache_hit"] is False
    assert len(counted_sweep_engine) == 2


# ---------------------------------------------------------------------------
# failure taxonomy over HTTP
# ---------------------------------------------------------------------------

def test_fault_plan_job_reports_taxonomy(server):
    spec = _sweep_spec("fault plan over http")
    with faults.injected(faults.Fault("nan", count=None)):
        status, submitted = _post(server, "/jobs", spec)
        assert status == 202
        doc = _wait(server, submitted["job_id"])

    # a solver failure is a job state, not a transport error
    assert doc["state"] == "failed"
    assert doc["failures"], doc
    assert {f["kind"] for f in doc["failures"]} == {"nan_inf"}
    assert doc["error"]

    stats = server.manager.stats()
    assert stats["failed"] == 1
    assert stats["completed"] == 0


# ---------------------------------------------------------------------------
# solver processes and the daemon's memory
# ---------------------------------------------------------------------------

def test_keep_alive_requests_do_not_stall(server):
    """Replies on one connection are not held back by Nagle's algorithm."""
    conn = http.client.HTTPConnection(*server.address, timeout=30)
    latencies = []
    try:
        for _ in range(25):
            start = time.perf_counter()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            latencies.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        conn.close()
    assert statistics.median(latencies) < 0.015, latencies


def test_distinct_misses_solve_in_distinct_solver_processes(counted_sweep_engine, server):
    ids = []
    for label in ("solver a", "solver b"):
        spec = _sweep_spec(label)
        spec["duration"] = 5e-9
        ids.append(_post(server, "/jobs", spec)[1]["job_id"])
    for job_id in ids:
        assert _wait(server, job_id)["state"] == "done"
    pids = {pid for _, pid in counted_sweep_engine.entries()}
    assert len(counted_sweep_engine) == 2
    assert len(pids) == 2 and str(os.getpid()) not in pids


def test_sharded_sweep_forks_its_pool_in_the_solver_process(counted_sweep_engine, server):
    """A solver process is single-threaded, so its shard pool forks from it
    (a spawned shard worker would not see the counting adapter).  RBF
    family, which shards whenever asked."""
    spec = _sweep_spec("sharded inside a solver")
    spec["duration"] = 5e-9
    spec["engine"].update(workers=2, sweep_family="rbf")
    _, submitted = _post(server, "/jobs", spec)
    assert _wait(server, submitted["job_id"])["state"] == "done"
    pids = [pid for _, pid in counted_sweep_engine.entries()]
    assert len(pids) == 3 and len(set(pids)) == 3  # the solver, then one per shard


def test_daemon_holds_no_result(server):
    """A job keeps its hash and a small summary; results stay in the store."""
    from repro.api import Result

    ids = []
    for k in range(4):
        spec = _sweep_spec(f"held {k}")
        spec["duration"] = 5e-9
        ids.append(_post(server, "/jobs", spec)[1]["job_id"])
    ids.append(_post(server, "/jobs", spec)[1]["job_id"])  # a duplicate of the last
    for job_id in ids:
        assert _wait(server, job_id)["state"] == "done"
    for job in server.manager.jobs():
        assert job.summary["n_samples"] >= 500
        held = {name: value for name, value in vars(job).items() if name != "spec"}
        assert not any(isinstance(value, Result) for value in held.values())
        # one 500-sample waveform would not fit in this
        text = json.dumps(held)
        assert len(text) < 4096 and '"waveforms"' not in text
    assert server.manager._memory == {}


@linux_only
def test_killed_solver_process_fails_its_job(counted_sweep_engine, tmp_path):
    before = {child.pid for child in multiprocessing.active_children()}
    server = _daemon(tmp_path / "results", workers=1)
    try:
        solvers = [child.pid for child in multiprocessing.active_children()
                   if child.pid not in before]
        assert len(solvers) == 1
        spec = _sweep_spec("killed mid-job")
        spec["duration"] = 2e-8
        _, submitted = _post(server, "/jobs", spec)
        deadline = time.monotonic() + 60.0
        while not len(counted_sweep_engine) and time.monotonic() < deadline:
            time.sleep(0.005)
        os.kill(solvers[0], signal.SIGKILL)  # inside the engine call
        doc = _wait(server, submitted["job_id"])
        assert doc["state"] == "failed"
        assert "solver process died" in doc["error"]
        assert doc["failures"] == [] and doc["partial_result"] is False

        # nothing was cached, and a new pool solves the resubmission
        _, retry = _post(server, "/jobs", spec)
        doc = _wait(server, retry["job_id"])
        assert doc["state"] == "done" and doc["cache_hit"] is False
    finally:
        server.close()


def _process_tree(pid: int) -> list:
    """``pid`` and its descendants, from ``/proc``."""
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


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


@linux_only
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["sigterm", "sigkill"])
def test_no_process_outlives_the_daemon(tmp_path, sig):
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if path
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2", "--quiet"],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    tree = [proc.pid]
    try:
        found = re.search(r"http://[0-9.]+:[0-9]+/", proc.stdout.readline())
        assert found, "the daemon did not announce its address"
        daemon = types.SimpleNamespace(url=found.group(0))
        _, submitted = _post(daemon, "/jobs", _sweep_spec("outlived"))
        deadline = time.monotonic() + 120.0
        while _get(daemon, f"/jobs/{submitted['job_id']}")[1]["state"] != "done":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        tree = _process_tree(proc.pid)
        assert len(tree) == 3  # the daemon and its two solver processes

        proc.send_signal(sig)
        proc.wait(timeout=30)
        if sig == signal.SIGTERM:
            assert proc.returncode == 0  # the Ctrl-C shutdown path
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in tree) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in tree if _alive(pid)] == []
    finally:
        for pid in tree:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
