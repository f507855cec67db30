"""Content-addressed result store: ``spec.content_hash()`` → a finished job's bytes.

Every job has a stable SHA-256
(:meth:`repro.api.spec.SimulationSpec.content_hash`), so identical jobs
share one result.  The store keeps the bytes the service serves, encoded
once by the solver process that produced them, so

* a duplicate submission — from any client, before or after a daemon
  restart — completes from the entry's small head alone;
* ``/result`` and ``/waveforms`` send the stored bytes after an integrity
  check, with no parse or re-encode; a failed check removes the whole
  entry, so the next submission misses and rewrites it;
* every failure to read is a miss and every failure to write is dropped,
  never an error for the job that produced the result.

Layout (under the store root, default ``$REPRO_CACHE_DIR/results``)::

    results/
      <hash[:2]>/<hash>.json   line 1, the head: a repro.cache checksum
                               document of the entry format, the SHA-256
                               and size of line 2, and the status summary;
                               line 2: the result JSON /result serves
      <hash[:2]>/<hash>.npz    the archive /waveforms serves, checked by
                               the CRC-32 every ZIP member carries

One atomic replace writes both lines, so a reader never pairs one
writer's head with another's body.  The archive lands first, so a head
on disk has an archive beside it.  Failed jobs and partial sweeps are
never stored, so a retry after a transient fault gets a fresh solve.
"""

from __future__ import annotations

import hashlib
import io
import os
import zipfile
from typing import Optional, Tuple

from repro import cache

__all__ = ["ResultStore", "default_store_root"]

#: layout version of an entry's head; an entry of another layout is a miss
ENTRY_FORMAT = 1


def default_store_root() -> str:
    """The store directory the daemon uses when none is given.

    ``$REPRO_CACHE_DIR`` (default ``.cache``) with a ``results``
    subdirectory — next to, not mixed with, the macromodel
    identification cache.
    """
    return os.path.join(cache.cache_root(), "results")


def _intact_zip(data: bytes) -> bool:
    """Whether an archive opens and every member matches its CRC-32."""
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            return archive.testzip() is None
    except Exception:  # BadZipFile, EOFError, NotImplementedError, ...: damaged
        return False


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
        #: through ``GET /stats``, counting one lookup per job: a hit for
        #: each job served without a solve, a miss for each solve.
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
        """Where the head and result JSON of a hash live (whether or not they exist)."""
        return self._entry_path(spec_hash, ".json")

    def npz_path(self, spec_hash: str) -> Optional[str]:
        """Path of the stored NPZ archive, or ``None`` if absent/disabled."""
        if not self.enabled:
            return None
        path = self._entry_path(spec_hash, ".npz")
        return path if os.path.exists(path) else None

    # -- read/write -------------------------------------------------------
    def get(self, spec_hash: str, count: bool = True) -> Optional[dict]:
        """The status summary stored with a hash, or ``None``.

        Reads and checks the entry's head line only.  Counts one hit or
        miss in :attr:`stats` unless ``count`` is false (the job manager
        counts the lookup that decides a job itself).
        """
        entry = self._read(spec_hash, with_body=False)
        if count:
            self.stats["hits" if entry is not None else "misses"] += 1
        return None if entry is None else entry[0]["summary"]

    def body(self, spec_hash: str) -> Optional[bytes]:
        """The stored result JSON of a hash: the bytes ``/result`` serves.

        Checked against the SHA-256 and size its head records.  Uncounted,
        like :meth:`npz`: serving a finished job's result is not a cache
        lookup.  ``None`` when absent, corrupt or disabled.
        """
        entry = self._read(spec_hash, with_body=True)
        return None if entry is None else entry[1]

    def npz(self, spec_hash: str) -> Optional[bytes]:
        """The stored NPZ archive of a hash: the bytes ``/waveforms`` serves.

        Every member is checked against its CRC-32 first.  ``None`` when
        absent, corrupt or disabled; an entry whose archive is missing or
        corrupt is removed whole.
        """
        if not self.enabled:
            return None
        try:
            with open(self._entry_path(spec_hash, ".npz"), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        except OSError:  # transient: the entry may read fine next time
            return None
        if not _intact_zip(data):
            self._remove(spec_hash)
            return None
        return data

    def _read(self, spec_hash: str, with_body: bool) -> Optional[Tuple[dict, bytes]]:
        """The checked head of an entry and, if asked for, its body.

        Head and body come from one open file, so from one writer.  A
        failed check removes the entry; a transient ``OSError`` keeps it.
        """
        if not self.enabled:
            return None
        try:
            with open(self.json_path(spec_hash), "rb") as handle:
                line = handle.readline()
                body = handle.read() if with_body else b""
        except OSError:
            return None
        try:
            head = cache.unwrap(line)
        except ValueError:
            head = None
        intact = (
            isinstance(head, dict)
            and head.get("format") == ENTRY_FORMAT
            and isinstance(head.get("summary"), dict)
            and (not with_body or (
                len(body) == head.get("size")
                and hashlib.sha256(body).hexdigest() == head.get("sha256")
            ))
        )
        if not intact:
            self._remove(spec_hash)
            return None
        return head, body

    def _remove(self, spec_hash: str) -> None:
        """Drop an entry whole: its head first, so it stops being a hit."""
        cache.invalidate(self.json_path(spec_hash))
        cache.invalidate(self._entry_path(spec_hash, ".npz"))

    def put(self, spec_hash: str, summary: dict, body: bytes, npz: bytes) -> Optional[dict]:
        """Store a finished result's bytes under a hash.

        ``body`` is the result JSON ``/result`` serves, ``npz`` the archive
        ``/waveforms`` serves and ``summary`` the status summary a hit
        completes its job with.  Best effort (a read-only store drops the
        write without failing the job): returns the head written, or
        ``None`` when the store did not keep the entry.
        """
        if not self.enabled:
            return None
        head = {
            "format": ENTRY_FORMAT,
            "sha256": hashlib.sha256(body).hexdigest(),
            "size": len(body),
            "summary": summary,
        }
        if not (
            cache.atomic_write_bytes(self._entry_path(spec_hash, ".npz"), npz)
            and cache.atomic_write_bytes(
                self.json_path(spec_hash), cache.wrap(head) + b"\n" + body
            )
        ):
            return None
        self.stats["puts"] += 1
        return head
