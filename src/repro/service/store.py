"""Content-addressed result store: ``spec.content_hash()`` → finished job.

The PR 3 spec layer gave every job a stable SHA-256
(:meth:`repro.api.spec.SimulationSpec.content_hash`, equal across
processes and machines for equal specs) precisely so that identical jobs
could share their results.  This module is the store that makes the hash
pay off: a directory of finished results keyed by spec hash, written
through the hardened atomic helpers of :mod:`repro.cache` (atomic
replace, checksum validation, unlink-and-recover reads), so

* a duplicate submission — from any client, before or after a daemon
  restart — is served the *byte-identical* stored result without running
  a single solver step;
* a torn or bit-flipped entry is detected and recomputed instead of
  being served as garbage;
* the store is an optimisation only: every failure to read is a miss and
  every failure to write is dropped, never an error for the job that
  produced the result.

Layout (under the store root, default ``$REPRO_CACHE_DIR/results``)::

    results/
      <hash[:2]>/<hash>.json   checksum-wrapped Result.to_dict() document
      <hash[:2]>/<hash>.npz    compressed waveform artifact (Result.save_npz)

Only *clean* results are stored: failed jobs and partial sweeps are never
cached, so a retry after a transient fault gets a fresh solve.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Optional

from repro import cache

__all__ = ["ResultStore", "default_store_root"]


def default_store_root() -> str:
    """The store directory the daemon uses when none is given.

    ``$REPRO_CACHE_DIR`` (default ``.cache``) with a ``results``
    subdirectory — next to, not mixed with, the macromodel
    identification cache.
    """
    return os.path.join(cache.cache_root(), "results")


class ResultStore:
    """Disk store of finished job results, keyed by spec content hash.

    Parameters
    ----------
    root:
        Store directory (created lazily).  ``None`` selects
        :func:`default_store_root`.
    enabled:
        Force the store on/off; ``None`` (default) follows
        ``REPRO_DISK_CACHE`` like every other disk cache in the package
        (``0``/``false``/``off`` disables).

    A disabled store is a valid store that always misses — the daemon
    still deduplicates in-memory, it just forgets across restarts.
    """

    def __init__(self, root: Optional[str] = None, enabled: Optional[bool] = None):
        self.root = root if root is not None else default_store_root()
        self._enabled = enabled
        #: lookup/write counters since construction; the daemon serves them
        #: through ``GET /stats``.  A disabled store counts every lookup as
        #: a miss (it *is* one — the job re-solves).
        self.stats = {"hits": 0, "misses": 0, "puts": 0}

    @property
    def enabled(self) -> bool:
        """Whether reads/writes touch the disk (re-checks the env default)."""
        if self._enabled is not None:
            return self._enabled
        return cache.disk_cache_enabled()

    # -- paths ------------------------------------------------------------
    def _entry_path(self, spec_hash: str, suffix: str) -> str:
        return os.path.join(self.root, spec_hash[:2], f"{spec_hash}{suffix}")

    def json_path(self, spec_hash: str) -> str:
        """Where the result document of a hash lives (whether or not it exists)."""
        return self._entry_path(spec_hash, ".json")

    def npz_path(self, spec_hash: str) -> Optional[str]:
        """Path of the stored NPZ artifact, or ``None`` if absent/disabled."""
        if not self.enabled:
            return None
        path = self._entry_path(spec_hash, ".npz")
        return path if os.path.exists(path) else None

    # -- read/write -------------------------------------------------------
    def get(self, spec_hash: str) -> Optional[dict]:
        """The stored ``Result.to_dict()`` document of a hash, or ``None``.

        Structurally unusable entries (not a result-shaped object) are
        invalidated so the next run re-solves and rewrites them.  Counts
        one hit or miss in :attr:`stats`.
        """
        payload = self._read(spec_hash)
        self.stats["hits" if payload is not None else "misses"] += 1
        return payload

    def _read(self, spec_hash: str) -> Optional[dict]:
        """:meth:`get` without the counters (``put`` re-reads through this)."""
        if not self.enabled:
            return None
        path = self.json_path(spec_hash)
        payload = cache.read_json(path)
        if payload is None:
            return None
        if not self._is_result_document(payload):
            cache.invalidate(path)
            return None
        return payload

    def body(self, spec_hash: str) -> Optional[bytes]:
        """The stored document of a hash as the JSON bytes ``/result`` serves.

        Uncounted, like :meth:`npz`: serving a finished job's result is not
        a cache lookup.  ``None`` when absent, corrupt or disabled.
        """
        payload = self._read(spec_hash)
        return None if payload is None else json.dumps(payload).encode("utf-8")

    def npz(self, spec_hash: str) -> Optional[bytes]:
        """The stored NPZ artifact of a hash, or ``None``."""
        path = self.npz_path(spec_hash)
        if path is None:
            return None
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def put(self, spec_hash: str, result: Any) -> Optional[dict]:
        """Persist a finished :class:`repro.api.result.Result` under a hash.

        Writes the JSON document and the NPZ artifact atomically (best
        effort — a read-only store drops the write without failing the
        job).  Returns the document written, or ``None`` when the store
        did not keep it.  Readers get the stored bytes back through
        :meth:`body`, which validates them.
        """
        if not self.enabled:
            return None
        document = result.to_dict()
        if not cache.atomic_write_json(self.json_path(spec_hash), document):
            return None
        self.stats["puts"] += 1
        self._write_npz(spec_hash, result)
        return document

    def _write_npz(self, spec_hash: str, result: Any) -> None:
        path = self._entry_path(spec_hash, ".npz")
        try:
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".npz")
            try:
                with os.fdopen(fd, "wb") as handle:
                    result.save_npz(handle)
                os.replace(tmp_path, path)
            except BaseException:
                os.unlink(tmp_path)
                raise
        except OSError:
            pass

    @staticmethod
    def _is_result_document(payload: Any) -> bool:
        return (
            isinstance(payload, dict)
            and isinstance(payload.get("waveforms"), dict)
            and "times" in payload
            and "engine" in payload
        )
