"""Content-addressed cache tiers of the scan engine, on one segment store.

The engine caches per design in two tiers, both keyed by the SHA-256 hash
of the design's source text:

* the **result tier** (:class:`ScanCache`, this module) holds finished
  :class:`ScanRecord` verdicts, namespaced by the *model fingerprint*
  (see :mod:`repro.engine.artifacts`) and, for a non-default compute
  backend, by the backend too (:func:`cache_namespace`);
* the **feature tier** (:class:`repro.engine.feature_store.FeatureStore`)
  holds extracted feature rows, namespaced by the feature schema.

Namespacing gives invalidation by construction: editing a design's HDL
changes its content hash, and retraining the detector (or switching the
backend) switches to a fresh namespace directory, so a stale or foreign
verdict is never looked up again.

Both tiers sit on one on-disk implementation, :class:`SegmentStore`.  Rows
are addressed by the first hex character of their content hash (16
prefixes per namespace) under ``<root>/<fp16>/shards/``:

* a flush appends one numbered segment ``<prefix>.<seq:08d>.seg.npz`` per
  touched prefix, written atomically (temp file + ``os.replace``) under
  the namespace ``flock``.  It never reads or rewrites existing files, so
  it costs O(dirty rows), and concurrent writers (pool workers, a second
  scan, a service) cannot clobber each other;
* a lookup loads its prefix lazily, once, merging newest segment first
  over the base shard ``<prefix>.npz``, so the latest write of a hash wins;
* a prefix that reaches :data:`SEGMENT_COMPACT_THRESHOLD` segments is
  folded into its base shard on the spot;
* a damaged file is quarantined next to the store as ``*.corrupt`` with a
  logged warning, and its rows are simply recomputed.

Every file is an uncompressed ``.npz`` read with ``allow_pickle=False``:
a ``meta`` JSON byte array (store version and full namespace fingerprint;
a file whose meta differs is ignored), the sorted ``keys`` array, and the
tier's row arrays.  The result tier stores its records as one JSON
``records`` byte array aligned with ``keys``.  Each tier supplies only
that row codec, its namespace, and its own failpoint guards.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import logging
import os
import random
import struct
import threading
import time
import zipfile
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..core.results import ScanRecord
from ..faults import (
    LOCK_ACQUIRE_DEADLINE_S,
    LOCK_RETRY_POLICY,
    LOCK_STALE_AFTER_S,
    RetryPolicy,
    corrupting_failpoint,
    failpoint,
)
from ..nn.backend import DEFAULT_BACKEND
from ..obs.metrics import REGISTRY

logger = logging.getLogger(__name__)

#: Bump when the result tier's on-disk record layout changes.  Versions 1
#: and 2 were JSON formats that are no longer read: their records are
#: recomputed on the next scan.
CACHE_SCHEMA_VERSION = 3

#: Subdirectory of a namespace that holds its segment and base shard files.
SHARDS_DIRNAME = "shards"

#: Leading hex characters of a content hash that pick its files (16 prefixes).
PREFIX_LEN = 1

#: A flush that leaves this many segments for one prefix folds them into
#: the base shard right away (bounds merge-on-read work).
SEGMENT_COMPACT_THRESHOLD = 8

#: Filename suffix distinguishing append-only segments from base shards.
SEGMENT_SUFFIX = ".seg.npz"

#: Everything parsing a damaged segment file can raise (truncation, bad zip
#: headers or checksums, unknown compression methods, garbled meta JSON).
_DAMAGED = (
    OSError,
    EOFError,
    KeyError,
    ValueError,
    NotImplementedError,
    zipfile.BadZipFile,
    zlib.error,
    struct.error,
)

#: A tier's row codec: pack rows (in sorted key order) into named arrays,
#: and unpack an open ``.npz`` back into rows.
Encode = Callable[[List[Any]], Dict[str, np.ndarray]]
Decode = Callable[[Any], List[Any]]

# Result-tier cache telemetry (process-wide; see docs/OBSERVABILITY.md).
_CACHE_HITS = REGISTRY.counter(
    "repro_cache_result_hits_total", "Result-cache lookups served from memory."
)
_CACHE_MISSES = REGISTRY.counter(
    "repro_cache_result_misses_total", "Result-cache lookups that missed."
)
_CACHE_FLUSHES = REGISTRY.counter(
    "repro_cache_result_flushes_total", "Result-cache flushes that wrote segments."
)


class CacheLockTimeout(RuntimeError):
    """Raised when the namespace lockfile cannot be acquired in time."""


class _NamespaceLock:
    """Advisory lock guarding a cache namespace during flushes.

    On POSIX the lock is a kernel ``flock`` on the lockfile: it is
    released automatically when the holder exits — even SIGKILLed mid
    flush — so there are no stale locks to detect, nothing to steal, and
    no time-of-check races between waiters.  The lockfile itself is left
    in place after release (unlinking it would race fresh acquirers).

    Where ``fcntl`` is unavailable the class falls back to the portable
    ``O_CREAT | O_EXCL`` lockfile dance with best-effort staleness
    breaking: the holder's pid is recorded, a lock whose pid is provably
    dead is broken, and a lock whose holder cannot be checked is broken
    after ``stale_after`` seconds.  The fallback has a narrow
    check-then-unlink window two waiters could race through; the primary
    ``flock`` path does not.
    """

    def __init__(
        self,
        path: Path,
        timeout: float = LOCK_ACQUIRE_DEADLINE_S,
        stale_after: float = LOCK_STALE_AFTER_S,
        retry_policy: RetryPolicy = LOCK_RETRY_POLICY,
    ) -> None:
        self.path = path
        self.timeout = timeout
        self.stale_after = stale_after
        self.retry_policy = retry_policy
        # Per-lock jitter source so blocked writers do not poll in lockstep.
        self._rng = random.Random()
        self._fd: Optional[int] = None

    def _holder_state(self) -> str:
        """``"alive"``, ``"dead"`` or ``"unknown"`` for the recorded holder pid."""
        try:
            pid = int(self.path.read_text().strip() or "0")
        except (OSError, ValueError):
            return "unknown"
        if pid <= 0 or pid == os.getpid():
            return "unknown"
        try:
            os.kill(pid, 0)  # signal 0: existence probe, delivers nothing
        except ProcessLookupError:
            return "dead"
        except OSError:
            return "alive"  # exists but not ours (EPERM)
        return "alive"

    def _try_break_stale(self) -> None:
        """Remove the lockfile if its holder is provably dead or unknowably old.

        A lock whose holder pid is verifiably alive is never stolen, no
        matter its age — a legitimately slow flush keeps its lock and the
        waiter times out instead.  The age fallback only applies when the
        holder cannot be checked (other machine, unreadable file).
        """
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return  # already released
        holder = self._holder_state()
        if holder == "alive":
            return
        if holder == "unknown" and age < self.stale_after:
            return
        logger.warning("breaking stale cache lock %s (age %.1fs)", self.path, age)
        try:
            self.path.unlink()
        except OSError:
            pass  # somebody else broke it first

    def _acquire_flock(self) -> None:
        """POSIX path: take an exclusive kernel lock on the lockfile."""
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        deadline = time.monotonic() + self.timeout
        attempt = 0
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise CacheLockTimeout(
                        f"could not acquire cache lock {self.path} "
                        f"within {self.timeout:.1f}s"
                    ) from exc
                attempt += 1
                time.sleep(self.retry_policy.backoff_s(attempt, self._rng))
            else:
                os.ftruncate(fd, 0)
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                self._fd = fd
                return

    def _acquire_lockfile(self) -> None:
        """Fallback path: the O_CREAT|O_EXCL dance with staleness breaking."""
        deadline = time.monotonic() + self.timeout
        attempt = 0
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except OSError as exc:
                if exc.errno != errno.EEXIST:
                    raise
                self._try_break_stale()
                if time.monotonic() >= deadline:
                    raise CacheLockTimeout(
                        f"could not acquire cache lock {self.path} "
                        f"within {self.timeout:.1f}s"
                    ) from exc
                attempt += 1
                time.sleep(self.retry_policy.backoff_s(attempt, self._rng))
            else:
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                os.close(fd)
                return

    def acquire(self) -> None:
        """Block until the lock is held, or raise :class:`CacheLockTimeout`."""
        if fcntl is not None:
            self._acquire_flock()
        else:  # pragma: no cover - non-POSIX platforms
            self._acquire_lockfile()

    def release(self) -> None:
        """Release the lock (idempotent)."""
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
                self._fd = None
            # The lockfile stays in place: unlinking would race acquirers
            # that already opened it.
            return
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "_NamespaceLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def cache_namespace(fingerprint: str, backend: str = DEFAULT_BACKEND) -> str:
    """The result-tier namespace for a model scanned on a compute backend.

    The default backend keeps the bare model fingerprint, so existing
    caches stay valid.  Any other backend's namespace hashes the backend
    name in.  A backend's derived state (the int8 quantized weights) is a
    deterministic function of the artifact, so the pair is a complete key.
    """
    if backend == DEFAULT_BACKEND:
        return fingerprint
    return hashlib.sha256(f"{fingerprint}\0{backend}".encode("utf-8")).hexdigest()


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON via a sibling temp file + ``os.replace``.

    The temp name embeds the writer's pid so two processes atomically
    rewriting the same file (e.g. the scheduler journal of the same
    corpus) never race on one temp path; last ``os.replace`` wins.
    """
    tmp_path = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp_path, path)


def _quarantine(path: Path, reason: Exception) -> None:
    """Move an unreadable cache file aside as ``<name>.corrupt`` and warn."""
    target = path.with_name(path.name + ".corrupt")
    logger.warning(
        "quarantining corrupt cache file %s -> %s (%s: %s)",
        path,
        target.name,
        type(reason).__name__,
        reason,
    )
    try:
        os.replace(path, target)
    except OSError:
        pass  # a concurrent scan may have quarantined it already


def _file_size(path: Path) -> int:
    """A file's size in bytes, 0 if it vanished (concurrent quarantine)."""
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _load_segment(
    raw: bytes,
    meta: Optional[Dict[str, Any]] = None,
    decode: Optional[Decode] = None,
) -> Optional[Tuple[List[str], List[Any]]]:
    """Parse one segment (or base shard) file's bytes into ``(keys, rows)``.

    Returns ``None`` when ``meta`` is given and the file's embedded meta
    differs (another store version, or a 16-hex namespace-prefix
    collision).  Rows are decoded only when a codec ``decode`` is given;
    counting needs just the keys.  Raises one of :data:`_DAMAGED` for
    bytes that are not a well-formed segment.
    """
    with np.load(io.BytesIO(raw), allow_pickle=False) as data:
        if meta is not None and json.loads(bytes(data["meta"]).decode("utf-8")) != meta:
            return None
        keys = [str(k) for k in data["keys"]]
        rows = decode(data) if decode is not None else []
    if decode is not None and len(rows) != len(keys):
        raise ValueError("segment arrays have mismatched lengths")
    return keys, rows


def _count_rows(path: Path) -> int:
    """Number of rows in one store file (0 for damaged or vanished files)."""
    try:
        loaded = _load_segment(path.read_bytes())
    except _DAMAGED:
        return 0
    return len(loaded[0]) if loaded is not None else 0


def _describe_tier(
    directory: Union[str, Path], name_key: str, rows_key: str, skip: Tuple[str, ...] = ()
) -> Dict[str, Any]:
    """Describe every namespace under one tier root (``cache-info``).

    Pure directory walking: no store is opened, no lock is taken and no
    file is moved, so this is safe against a live cache.  Row counts sum
    base shards and segments, so a hash rewritten in a later segment
    counts once per file until the next compaction.  Quarantined
    ``*.corrupt`` files are counted so an operator notices corruption the
    engine quietly survived.  Namespaces are reported under ``name_key``
    and row totals under ``rows_key``.
    """
    root = Path(directory)
    namespaces: List[Dict[str, Any]] = []
    if root.is_dir():
        for namespace in sorted(p for p in root.iterdir() if p.is_dir()):
            if namespace.name in skip:
                continue
            files = sorted((namespace / SHARDS_DIRNAME).glob("*.npz"))
            corrupt = list(namespace.rglob("*.corrupt"))
            if not files and not corrupt:
                continue
            n_segments = sum(p.name.endswith(SEGMENT_SUFFIX) for p in files)
            namespaces.append(
                {
                    name_key: namespace.name,
                    "n_shards": len(files) - n_segments,
                    "n_segments": n_segments,
                    rows_key: sum(_count_rows(p) for p in files),
                    "bytes": sum(_file_size(p) for p in files),
                    "n_corrupt": len(corrupt),
                }
            )
    return {
        "directory": str(root),
        "namespaces": namespaces,
        rows_key: sum(ns[rows_key] for ns in namespaces),
        "bytes": sum(ns["bytes"] for ns in namespaces),
    }


def describe_result_tier(directory: Union[str, Path]) -> Dict[str, Any]:
    """Describe every model namespace under a result-cache root.

    The feature tier's conventional home (``<root>/features``) is skipped.
    See :func:`_describe_tier` for the counting rules.
    """
    return _describe_tier(directory, "fingerprint", "n_records", skip=("features",))


class SegmentStore:
    """Append-only, hash-prefix-addressed segment files of one namespace.

    The one on-disk implementation under both cache tiers; each tier owns
    one instance and supplies its row codec.  ``encode`` packs rows (in
    sorted key order) into named arrays, ``decode`` unpacks an open
    ``.npz`` back into rows.  ``meta`` is embedded in every file written
    and must match on read.  ``read_guard`` sees every file's raw bytes
    before parsing (the tier's corrupting failpoint).

    The in-memory state is guarded by a lock, because a serving process
    shares one feature store among the batch workers of every model
    lane.  The namespace ``flock`` orders writers across processes.
    """

    def __init__(
        self,
        namespace_dir: Path,
        meta: Dict[str, Any],
        encode: Encode,
        decode: Decode,
        read_guard: Callable[[bytes], bytes],
    ) -> None:
        self.namespace_dir = namespace_dir
        self.meta = meta
        self._encode = encode
        self._decode = decode
        self._read_guard = read_guard
        self._shards_dir = namespace_dir / SHARDS_DIRNAME
        self._lock = _NamespaceLock(namespace_dir / ".lock")
        self._mem_lock = threading.RLock()
        #: Rows visible in memory (loaded from disk, or put since).
        self._rows: Dict[str, Any] = {}
        #: Keys put since the last flush.
        self._dirty_keys: Set[str] = set()
        #: Prefixes whose files have been read already.
        self._loaded_prefixes: Set[str] = set()
        #: Lookup statistics (``ScanReport.n_feature_hits``, profiling).
        self.n_hits = 0
        self.n_misses = 0

    # -- addressing ----------------------------------------------------------
    def _base_path(self, prefix: str) -> Path:
        """The base shard file of a prefix (written only by compaction)."""
        return self._shards_dir / f"{prefix}.npz"

    def _segment_paths(self, prefix: str) -> List[Path]:
        """A prefix's segment files, oldest first (sequence-number order)."""
        try:
            names = os.listdir(self._shards_dir)  # far cheaper than a glob
        except OSError:
            return []
        start = f"{prefix}."
        return [
            self._shards_dir / name
            for name in sorted(names)
            if name.startswith(start) and name.endswith(SEGMENT_SUFFIX)
        ]

    def _next_segment_path(self, prefix: str, segments: List[Path]) -> Path:
        """The next free segment filename after a prefix's ``segments``."""
        last = -1
        for path in segments:
            seq = path.name[len(prefix) + 1 : -len(SEGMENT_SUFFIX)]
            if seq.isdigit():
                last = max(last, int(seq))
        return self._shards_dir / f"{prefix}.{last + 1:08d}{SEGMENT_SUFFIX}"

    # -- reading -------------------------------------------------------------
    def _read_file(self, path: Path) -> Dict[str, Any]:
        """Read one store file; damaged files are quarantined, not fatal."""
        try:
            # Read the whole file up front: no handle for np.load to leak
            # when the zip header parse raises on a truncated file.
            loaded = _load_segment(
                self._read_guard(path.read_bytes()), self.meta, self._decode
            )
        except _DAMAGED as exc:
            _quarantine(path, exc)
            return {}
        return dict(zip(*loaded)) if loaded is not None else {}

    def _ensure_prefix_loaded(self, prefix: str) -> None:
        """Lazily read the files backing a prefix (once).

        Merge order is newest-first with ``setdefault``: unflushed rows win
        over any disk copy, newer segments over older ones, and every
        segment over the base shard.  A segment that vanishes mid-read (a
        concurrent compaction folded it) is harmless: the base shard is
        read last and carries its rows.
        """
        if prefix in self._loaded_prefixes:
            return
        self._loaded_prefixes.add(prefix)
        paths = list(reversed(self._segment_paths(prefix)))
        paths.append(self._base_path(prefix))
        for path in paths:
            if path.is_file():
                for key, row in self._read_file(path).items():
                    self._rows.setdefault(key, row)

    def get(self, key: str) -> Optional[Any]:
        """The row stored for a content hash, or ``None``."""
        with self._mem_lock:
            self._ensure_prefix_loaded(key[:PREFIX_LEN])
            row = self._rows.get(key)
            if row is None:
                self.n_misses += 1
            else:
                self.n_hits += 1
            return row

    def __contains__(self, key: str) -> bool:
        """Whether a row is stored for a content hash (no statistics)."""
        with self._mem_lock:
            self._ensure_prefix_loaded(key[:PREFIX_LEN])
            return key in self._rows

    def __len__(self) -> int:
        """Number of rows visible (on disk or put since), loading every prefix."""
        with self._mem_lock:
            if self._shards_dir.is_dir():
                for path in self._shards_dir.glob("*.npz"):
                    self._ensure_prefix_loaded(path.name.split(".", 1)[0])
            return len(self._rows)

    def put(self, key: str, row: Any) -> None:
        """Insert (or overwrite) the row for a content hash."""
        with self._mem_lock:
            self._rows[key] = row
            self._dirty_keys.add(key)

    # -- writing -------------------------------------------------------------
    def _write_file(self, path: Path, rows: Dict[str, Any]) -> None:
        """Atomically write one segment or base shard (namespace lock held).

        Keys are written sorted, so a file's bytes are a pure function of
        its contents: byte-identical across writers and runs.
        """
        keys = sorted(rows)
        meta = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        buffer = io.BytesIO()
        np.savez(
            buffer,
            meta=np.frombuffer(meta, dtype=np.uint8),
            keys=np.array(keys),
            **self._encode([rows[k] for k in keys]),
        )
        tmp_path = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp_path.write_bytes(buffer.getvalue())
        os.replace(tmp_path, path)

    def flush(self, io_guard: Callable[[], None]) -> bool:
        """Append the dirty rows as one new segment per touched prefix.

        Dirty rows are snapshotted under the memory lock and written
        outside it, so rows put meanwhile stay dirty for the next flush.
        ``io_guard`` runs under the namespace lock before any write (the
        tier's flush failpoint).  If the write fails, the snapshot is
        re-marked dirty so the rows are retried rather than lost.  Returns
        whether anything was written.
        """
        with self._mem_lock:
            if not self._dirty_keys:
                return False
            flushed_keys = set(self._dirty_keys)
            by_prefix: Dict[str, Dict[str, Any]] = {}
            for key in flushed_keys:
                by_prefix.setdefault(key[:PREFIX_LEN], {})[key] = self._rows[key]
            self._dirty_keys.clear()
        try:
            self._shards_dir.mkdir(parents=True, exist_ok=True)
            with self._lock:
                io_guard()
                for prefix in sorted(by_prefix):
                    segments = self._segment_paths(prefix)
                    path = self._next_segment_path(prefix, segments)
                    self._write_file(path, by_prefix[prefix])
                    if len(segments) + 1 >= SEGMENT_COMPACT_THRESHOLD:
                        self._compact_prefix(prefix)
        except BaseException:  # re-mark dirty rows for retry, then re-raise
            with self._mem_lock:
                self._dirty_keys |= flushed_keys
            raise
        return True

    def _compact_prefix(self, prefix: str) -> int:
        """Fold a prefix's segments into its base shard (namespace lock held).

        Merges base-then-oldest-to-newest so the newest write of every hash
        wins, rewrites the base shard atomically, then removes the merged
        segments.  Returns how many segments were folded in.
        """
        segments = self._segment_paths(prefix)
        if not segments:
            return 0
        base_path = self._base_path(prefix)
        merged = self._read_file(base_path) if base_path.is_file() else {}
        for path in segments:
            merged.update(self._read_file(path))
        if merged:
            self._write_file(base_path, merged)
        for path in segments:
            try:
                path.unlink()
            except OSError:
                pass  # already quarantined or removed
        return len(segments)

    def compact(self) -> int:
        """Fold every segment of the namespace into its base shard.

        Safe against live readers and writers: runs under the namespace
        lock, and readers fall back to the base shard for any segment that
        vanishes under them.  Returns the number of segments removed.
        """
        if not self._shards_dir.is_dir():
            return 0
        prefixes = sorted(
            {p.name.split(".", 1)[0] for p in self._shards_dir.glob(f"*{SEGMENT_SUFFIX}")}
        )
        with self._lock:
            return sum(self._compact_prefix(prefix) for prefix in prefixes)


def _encode_records(records: List[dict]) -> Dict[str, np.ndarray]:
    """Result-tier codec: every record as one JSON byte array."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return {"records": np.frombuffer(blob, dtype=np.uint8)}


def _decode_records(data: Any) -> List[dict]:
    """Inverse of :func:`_encode_records`; a malformed array is damage."""
    records = json.loads(bytes(data["records"]).decode("utf-8"))
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ValueError("segment records are not a list of JSON objects")
    return records


class ScanCache:
    """Per-model, content-addressed store of :class:`ScanRecord` entries.

    Parameters
    ----------
    directory:
        Cache root shared by all fingerprints (e.g. ``.repro_cache``).
    fingerprint:
        Namespace of this store (a model fingerprint, or the
        :func:`cache_namespace` of one); records never cross it.
    """

    def __init__(self, directory: Union[str, Path], fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.namespace_dir = self.directory / fingerprint[:16]
        self._segments = SegmentStore(
            self.namespace_dir,
            meta={"store_version": CACHE_SCHEMA_VERSION, "fingerprint": fingerprint},
            encode=_encode_records,
            decode=_decode_records,
            read_guard=lambda raw: corrupting_failpoint("cache.shard.read", raw),
        )

    def __len__(self) -> int:
        """Number of records visible (flushed or not)."""
        return len(self._segments)

    def __contains__(self, sha256: str) -> bool:
        """Whether a record for this content hash is present."""
        return sha256 in self._segments

    def get(self, sha256: str) -> Optional[ScanRecord]:
        """The cached record for a content hash, marked ``cached=True``."""
        data = self._segments.get(sha256)
        if data is None:
            _CACHE_MISSES.inc()
            return None
        record = ScanRecord.from_dict(data)
        record.cached = True
        _CACHE_HITS.inc()
        return record

    def put(self, record: ScanRecord) -> None:
        """Insert or overwrite the record for its content hash.

        Records carrying an ``error`` are not cached: a front-end failure
        may be transient (e.g. an unreadable file) and is cheap to retry.
        """
        if record.error is not None:
            return
        stored = record.to_dict()
        stored["cached"] = False  # cached-ness is a property of the lookup
        self._segments.put(record.sha256, stored)

    def put_many(self, records: Iterable[ScanRecord]) -> None:
        """Insert several records (see :meth:`put`)."""
        for record in records:
            self.put(record)

    def flush(self) -> Optional[Path]:
        """Append dirty records as new segments (see :class:`SegmentStore`).

        Returns the namespace directory when anything was written, ``None``
        otherwise.
        """
        if not self._segments.flush(lambda: failpoint("cache.flush.io")):
            return None
        _CACHE_FLUSHES.inc()
        return self.namespace_dir
