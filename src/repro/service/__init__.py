"""Simulation-as-a-service: a long-running daemon over the job API.

The job API (PR 3) made a run *data* — a frozen, validated,
content-hashed :class:`~repro.api.spec.SimulationSpec` — but every run
still paid a full process start and a full solve.  This package is the
serving layer on top (ROADMAP open item 1): a dependency-free HTTP
daemon that accepts spec JSON, runs it on a bounded worker pool, and
content-addresses every result by ``spec.content_hash()`` so identical
jobs — across clients, and across daemon restarts — are served from the
cache with *zero* additional solver work.

Layers
------
* :mod:`repro.service.store` — :class:`~repro.service.store.ResultStore`,
  the content-addressed store of each finished result's JSON and NPZ
  bytes, written through the atomic helpers of :mod:`repro.cache`;
* :mod:`repro.service.jobs` — :class:`~repro.service.jobs.Job` and
  :class:`~repro.service.jobs.JobManager`: the queue, the worker threads
  and the solver processes they feed, single-flight dedup and the
  failure-taxonomy job states;
* :mod:`repro.service.daemon` — the stdlib ``http.server`` endpoint
  layer (:class:`~repro.service.daemon.JobServer` and the blocking
  :func:`~repro.service.daemon.serve` the CLI calls).

Start it from the shell and talk JSON to it::

    python -m repro serve --port 8765 &
    curl -s -X POST --data-binary @examples/jobs/linear_link.json \\
        'http://127.0.0.1:8765/jobs'
    curl -s http://127.0.0.1:8765/jobs/<id>/result | python -m json.tool

See ``docs/service.md`` for the endpoint reference and
``docs/operations.md`` for cache layout and deployment notes.
"""

from repro.service.daemon import ROUTES, JobServer, serve
from repro.service.jobs import JOB_STATES, Job, JobManager
from repro.service.store import ResultStore, default_store_root

__all__ = [
    "ROUTES",
    "JobServer",
    "serve",
    "JOB_STATES",
    "Job",
    "JobManager",
    "ResultStore",
    "default_store_root",
]
