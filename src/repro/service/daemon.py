"""The HTTP face of the simulation service (stdlib ``http.server`` only).

``python -m repro serve`` (or ``repro-smc03 serve``) turns the one-shot
job CLI into a long-running daemon: clients POST the same JSON job files
``python -m repro run`` consumes and poll for results, while the
:class:`~repro.service.jobs.JobManager` deduplicates identical specs
through the content-addressed result store.

Endpoints
---------
``POST /jobs``
    Submit a job.  The body is a ``SimulationSpec`` JSON document (the
    exact format of ``examples/jobs/*.json``); ``?quick=1`` runs the
    capped smoke variant (``SimulationSpec.quickened``, hashed *after*
    capping).  Returns ``202 Accepted`` with ``{"job_id", "spec_hash",
    "state", "cache_hit"}`` — or ``200 OK`` when the result was already
    cached and the job is ``done`` on arrival.  Invalid specs get ``400``
    with the validation message (the job is never created).
``GET /jobs``
    Summaries of every job this daemon has seen, in submission order;
    ``?state=queued|running|done|failed`` keeps only that state
    (unknown states get ``400``).
``GET /jobs/<id>``
    Status document: state, spec hash, ``cache_hit``, timestamps, the
    ``RunHealth`` summary once a result exists, and the structured
    failure records of a failed job.
``GET /jobs/<id>/result``
    The full result JSON (``Result.to_dict()``: times, waveforms,
    perf_stats, meta): the bytes the solver process encoded and the
    result store keeps, sent once they match the SHA-256 in their entry's
    head.  ``409`` while the job is queued/running; for a failed job the
    partial result is served when one exists (partial sweeps), else
    ``409`` with the failure records; ``410`` once a done job's entry has
    left the store or failed its check (which removes it).
``GET /jobs/<id>/waveforms``
    The uncompressed NPZ archive (``Result.save_npz`` layout: ``times``,
    one ``w:<name>`` array per waveform, ``meta_json``), sent once every
    member matches its CRC-32; otherwise likewise.
``GET /healthz``
    Liveness + daemon-lifetime counters (submitted, solves, cache_hits,
    completed, failed, queued, workers).
``GET /engines``
    The engine kinds and the ``engine`` option names a spec may set.
``GET /stats``
    Cache-layer counters since daemon start: the job counters plus
    hit/miss/put counts of the content-addressed result store.

Failures never surface as ``500``: a solver failure is a *job* state
(``failed`` with the PR 6 taxonomy records), not a transport error.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.jobs import JobManager
from repro.service.store import ResultStore

__all__ = ["JobServer", "serve", "ROUTES"]

#: the routes the handler serves (docs/service.md is cross-checked
#: against this table by scripts/check_docs.py)
ROUTES = (
    ("POST", "/jobs"),
    ("GET", "/jobs"),
    ("GET", "/jobs/<id>"),
    ("GET", "/jobs/<id>/result"),
    ("GET", "/jobs/<id>/waveforms"),
    ("GET", "/healthz"),
    ("GET", "/engines"),
    ("GET", "/stats"),
)

#: submission bodies above this size are rejected with 413 (an inline-
#: macromodel sweep spec is ~100 kB; this is two orders above that)
MAX_BODY_BYTES = 16 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to the owning :class:`JobServer`."""

    server_version = "repro-smc03-service"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle's algorithm on, the
    # second waits for the client's delayed ACK (~40 ms per keep-alive reply).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------
    @property
    def manager(self) -> JobManager:
        return self.server.job_manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str, *headers: Tuple[str, str]) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"), "application/json")

    # -- dispatch ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        try:
            self._route_get()
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # defensive: a handler bug must not kill the daemon
            try:
                self._send_json(500, {"error": f"internal error: {type(exc).__name__}: {exc}"})
            except Exception:
                pass

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._route_post()
        except BrokenPipeError:
            pass
        except Exception as exc:
            try:
                self._send_json(500, {"error": f"internal error: {type(exc).__name__}: {exc}"})
            except Exception:
                pass

    def _route_get(self) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parsed.path == "/healthz":
            return self._get_healthz()
        if parsed.path == "/engines":
            return self._get_engines()
        if parsed.path == "/stats":
            return self._get_stats()
        if parts and parts[0] == "jobs":
            if len(parts) == 1:
                return self._get_jobs(parse_qs(parsed.query))
            job = self.manager.get(parts[1])
            if job is None:
                return self._send_json(404, {"error": f"no job {parts[1]!r}"})
            if len(parts) == 2:
                return self._send_json(200, job.status_dict())
            if len(parts) == 3 and parts[2] == "result":
                return self._get_result(job)
            if len(parts) == 3 and parts[2] == "waveforms":
                return self._get_waveforms(job)
        self._send_json(404, {"error": f"no route for GET {parsed.path}"})

    def _route_post(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path != "/jobs":
            return self._send_json(404, {"error": f"no route for POST {parsed.path}"})
        self._post_job(parse_qs(parsed.query))

    # -- endpoints ---------------------------------------------------------
    def _get_healthz(self) -> None:
        from repro import __version__

        self._send_json(200, {
            "status": "ok",
            "version": __version__,
            "jobs": self.manager.stats(),
            "result_store": {
                "enabled": self.manager.store.enabled,
                "root": self.manager.store.root,
            },
        })

    def _get_stats(self) -> None:
        """Cache-layer counters since daemon start."""
        self._send_json(200, {
            "jobs": self.manager.stats(),
            "result_store": {
                "enabled": self.manager.store.enabled,
                "root": self.manager.store.root,
                **self.manager.store.stats,
            },
        })

    def _get_engines(self) -> None:
        from repro.api import EngineOptions
        from repro.api.engines import ENGINES

        self._send_json(200, {
            "engines": [
                {"kind": kind, "summary": summary} for kind, (summary, _) in ENGINES.items()
            ],
            "engine_options": sorted(
                field.name for field in dataclasses.fields(EngineOptions)
            ),
        })

    def _get_jobs(self, query: dict) -> None:
        from repro.service.jobs import JOB_STATES

        states = query.get("state")
        if states:
            state = states[-1]
            if state not in JOB_STATES:
                return self._send_json(400, {
                    "error": f"unknown state {state!r}; expected one of {list(JOB_STATES)}"
                })
            jobs = [job for job in self.manager.jobs() if job.state == state]
        else:
            jobs = self.manager.jobs()
        self._send_json(200, {
            "jobs": [job.status_dict() for job in jobs],
        })

    def _post_job(self, query: dict) -> None:
        from repro.api import spec_from_dict

        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return self._send_json(400, {"error": "malformed Content-Length"})
        if length <= 0:
            return self._send_json(400, {"error": "empty request body (expected a spec JSON)"})
        if length > MAX_BODY_BYTES:
            return self._send_json(413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"})
        body = self.rfile.read(length)
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            return self._send_json(400, {"error": f"request body is not valid JSON: {exc}"})
        try:
            spec = spec_from_dict(data)
        except ValueError as exc:
            return self._send_json(400, {"error": f"invalid spec: {exc}"})
        if query.get("quick", ["0"])[-1] in ("1", "true", "yes"):
            spec = spec.quickened()
        job = self.manager.submit(spec)
        payload = {
            "job_id": job.job_id,
            "spec_hash": job.spec_hash,
            "state": job.state,
            "cache_hit": job.cache_hit,
            "status_url": f"/jobs/{job.job_id}",
            "result_url": f"/jobs/{job.job_id}/result",
            "waveforms_url": f"/jobs/{job.job_id}/waveforms",
        }
        self._send_json(200 if job.state == "done" else 202, payload)

    def _get_result(self, job) -> None:
        body = self._artifact(job, npz=False)
        if body is not None:
            self._send(200, body, "application/json",
                       ("X-Repro-Cache-Hit", "1" if job.cache_hit else "0"))

    def _get_waveforms(self, job) -> None:
        body = self._artifact(job, npz=True)
        if body is not None:
            self._send(200, body, "application/octet-stream",
                       ("Content-Disposition", f'attachment; filename="{job.spec_hash}.npz"'))

    def _artifact(self, job, npz: bool) -> Optional[bytes]:
        """A finished job's checked result bytes, or ``None`` after answering why not."""
        if job.state in ("queued", "running"):
            self._send_json(
                409, {"error": "job not finished", "state": job.state, "job_id": job.job_id}
            )
            return None
        body = self.manager.artifact(job, npz=npz)
        if body is None and job.state == "failed":
            self._send_json(409, {
                "error": "job failed with no result",
                "state": job.state,
                "job_id": job.job_id,
                "failures": list(job.failures),
                "detail": job.error,
            })
        elif body is None:
            self._send_json(410, {
                "error": "the stored result of this job is gone; resubmit the spec",
                "state": job.state,
                "job_id": job.job_id,
                "spec_hash": job.spec_hash,
            })
        return body


class JobServer:
    """A running daemon: HTTP server + worker pool, one object to close.

    >>> server = JobServer(port=0, workers=1)      # ephemeral port
    >>> server.start()
    >>> server.url
    'http://127.0.0.1:.../'
    >>> server.close()

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` — what the tests do).
    workers:
        Solver processes (see :class:`~repro.service.jobs.JobManager`).
    store:
        Result store override; ``None`` builds the default
        (``$REPRO_CACHE_DIR/results``).
    verbose:
        Log each request line to stderr (the CLI turns this on).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        store: Optional[ResultStore] = None,
        verbose: bool = False,
    ):
        self.manager = JobManager(store=store, workers=workers)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.job_manager = self.manager  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._served = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._httpd.server_address[:2]

    @property
    def port(self) -> int:
        """The bound port (useful after binding port 0)."""
        return self.address[1]

    @property
    def url(self) -> str:
        """Base URL of the daemon (trailing slash)."""
        host, port = self.address
        return f"http://{host}:{port}/"

    def start(self) -> "JobServer":
        """Serve in a background thread (returns self for chaining)."""
        if self._thread is None:
            self._served = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="repro-http", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path; Ctrl-C stops it)."""
        self._served = True
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop accepting requests and shut the worker pool down."""
        if self._served:  # shutdown() deadlocks if serve_forever never ran
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.manager.close()


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    cache_dir: Optional[str] = None,
    verbose: bool = True,
) -> int:
    """Run the daemon until interrupted (the ``python -m repro serve`` body).

    SIGTERM, what supervisors send, shuts down like Ctrl-C.  ``cache_dir``
    overrides the result-store root (default ``$REPRO_CACHE_DIR/results``);
    returns the process exit code.
    """
    store = ResultStore(root=cache_dir) if cache_dir is not None else None
    server = JobServer(host=host, port=port, workers=workers, store=store, verbose=verbose)
    print(f"repro-smc03 service listening on {server.url} "
          f"({workers} solver process(es), result store: {server.manager.store.root})", flush=True)
    previous = None
    if threading.current_thread() is threading.main_thread():
        previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.close()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return 0
