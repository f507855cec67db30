"""Hardened atomic disk cache shared by every on-disk store.

The package keeps two disk stores under one root: identified macromodels
(:mod:`repro.experiments.devices`) and the service's finished results
(:mod:`repro.service.store`).  Both find that root and the on/off switch
through :func:`cache_root` and :func:`disk_cache_enabled`, and both write
through the helpers below:

* **atomic writes** — :func:`atomic_write_bytes` is the package's one
  ``tempfile`` + ``os.replace`` in the target directory, so readers never
  observe a torn file and concurrent writers last-one-wins cleanly;
* **checksum validation** — :func:`wrap` encodes a payload as one JSON
  line with a SHA-256 of its canonical encoding, and :func:`unwrap`
  refuses a bit-flipped or truncated line instead of deserialising it
  into garbage (:func:`atomic_write_json`/:func:`read_json` are the
  whole-file form of the pair);
* **unlink-and-recover reads** — permanently corrupt entries (bad JSON,
  failed checksum, structurally wrong payload) are removed best-effort so
  later runs recompute once instead of tripping repeatedly, while
  *transient* read failures (``OSError`` from a flaky shared volume) keep
  the entry and just miss.

Caches built on this module are optimisations only: no helper here ever
raises on I/O problems — a failed write is dropped, a failed read is a
miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any

__all__ = [
    "CACHE_DOC_FORMAT",
    "cache_root",
    "disk_cache_enabled",
    "checksum",
    "wrap",
    "unwrap",
    "atomic_write_bytes",
    "atomic_write_json",
    "read_json",
    "invalidate",
]

#: bump when the wrapping document schema changes incompatibly
CACHE_DOC_FORMAT = 1


def cache_root() -> str:
    """The directory every disk store lives under: ``$REPRO_CACHE_DIR``, default ``.cache``."""
    return os.environ.get("REPRO_CACHE_DIR", ".cache")


def disk_cache_enabled() -> bool:
    """Whether disk stores read and write (``REPRO_DISK_CACHE=0``/``false``/``off`` disables)."""
    return os.environ.get("REPRO_DISK_CACHE", "1").strip().lower() not in ("0", "false", "off")


def checksum(payload: Any) -> str:
    """SHA-256 of the canonical JSON encoding of a payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def wrap(payload: Any) -> bytes:
    """The checksum document of a JSON payload, as one line of UTF-8.

    Raises ``TypeError``/``ValueError`` on a payload JSON cannot encode.
    """
    document = {
        "cache_format": CACHE_DOC_FORMAT,
        "checksum": checksum(payload),
        "payload": payload,
    }
    return json.dumps(document).encode("utf-8")


def unwrap(data: bytes) -> Any:
    """The payload of a checksum document; ``ValueError`` if it is corrupt.

    Legacy entries written before the checksum wrapper existed (a bare
    JSON object without the ``cache_format`` key) are returned as-is; the
    caller's own payload validation governs them.
    """
    document = json.loads(data)
    if not isinstance(document, dict) or "cache_format" not in document:
        return document  # legacy pre-checksum entry: caller validates
    payload = document.get("payload")
    if document.get("checksum") != checksum(payload):
        raise ValueError("cache entry fails its checksum")
    return payload


def atomic_write_bytes(path: str, data: bytes) -> bool:
    """Atomically replace the file at ``path`` with ``data``.

    Returns ``True`` on success, ``False`` on any ``OSError`` (read-only
    filesystem, full disk, ...) — cache writes are best effort and must
    never fail the computation that produced the data.
    """
    try:
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp_")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, path)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError:
        return False
    return True


def atomic_write_json(path: str, payload: Any) -> bool:
    """Atomically persist ``payload`` (checksum-wrapped) at ``path``.

    ``False`` when the payload cannot be encoded or the write fails.
    """
    try:
        return atomic_write_bytes(path, wrap(payload))
    except (TypeError, ValueError):  # JSON cannot encode the payload
        return False


def read_json(path: str) -> Any | None:
    """Load and validate a cache entry; ``None`` on miss or any failure.

    Corrupt entries — unparseable JSON, a checksum mismatch — are unlinked
    (best effort) before returning ``None`` so the recomputed entry
    replaces them.  Transient ``OSError`` reads keep the entry: it may be
    perfectly valid on the next attempt.  A legacy bare object passes
    through (see :func:`unwrap`).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    try:
        return unwrap(data)
    except ValueError:
        invalidate(path)
        return None


def invalidate(path: str) -> None:
    """Remove a corrupt or structurally unusable entry (best effort)."""
    try:
        os.unlink(path)
    except OSError:
        pass
