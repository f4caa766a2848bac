"""Content-addressed result store: never simulate the same point twice.

Every :class:`~repro.bench.spec.SamplePoint` is a pure function of its
fields and the simulated model (:data:`repro.MODEL_ID`, the hash of the
committed golden tables) — so its measurement can be cached forever
under a key that digests exactly those inputs.  This module provides
that cache:

* :func:`point_key` — the full (untruncated) sha256 digest of the
  canonical JSON encoding of ``(spec full hash, point, fault plan hash,
  fault seed, fidelity, model id, schema)``;
* :class:`ResultStore` — a persistent directory of content-addressed
  blobs with atomic writes (temp file + ``os.replace``), integrity
  verification on every read (the blob's canonical payload is re-hashed
  and compared against its stored digest *and* its filename), and
  deterministic canonical encoding, so a warm sweep is byte-identical
  to a cold one;
* :func:`store_from_env` / :func:`resolve_store` — ``REPRO_RESULT_STORE``
  and ``--store``/``--no-store`` resolution shared by the CLI and the
  figure regenerators.

Corrupt blobs (bit flips, truncation, foreign files) are treated as
misses: the entry is dropped, the point re-executes, and the write-back
repairs the store.  Only successful measurements are cached — an error
outcome re-executes on every run so transient failures self-heal.

The executors (:mod:`repro.bench.executor`) thread a store through
:meth:`~repro.bench.executor._BaseExecutor.run` as a read-through /
write-back layer.  ``python -m repro bench cache`` exposes
:meth:`ResultStore.stats`, :meth:`ResultStore.verify`, and
:meth:`ResultStore.gc`.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro import canonical
from repro._version import MODEL_ID, __version__
from repro.bench.spec import PointResult, SamplePoint, SweepSpec
from repro.errors import ReproError

__all__ = [
    "STORE_SCHEMA",
    "STORE_ENV",
    "point_key",
    "spec_keys",
    "StoreEntry",
    "ResultStore",
    "store_from_env",
    "resolve_store",
]

#: Bumping this invalidates every existing key; it covers the blob
#: layout only (a model change moves ``MODEL_ID`` instead).
STORE_SCHEMA = 2

#: Environment variable naming the default store directory.
STORE_ENV = "REPRO_RESULT_STORE"


def point_key(point: SamplePoint, *, spec_hash: str) -> str:
    """Full sha256 store key for one measurement.

    ``spec_hash`` is the owning spec's **untruncated**
    :meth:`~repro.bench.spec.SweepSpec.full_hash` (the 16-char display
    form is rejected — a truncated namespace would reintroduce the
    collision hazard the full form exists to close).  The point's own
    canonical dict carries the complete fault plan and fidelity, and the
    plan hash / fault seed / fidelity fields are additionally keyed
    explicitly so no two of those variations can ever alias.
    """
    if len(spec_hash) != 64:
        raise ReproError(
            f"point_key wants the untruncated spec full_hash() "
            f"(64 hex chars), got {len(spec_hash)}"
        )
    key = {
        "schema": STORE_SCHEMA,
        "model": MODEL_ID,
        "spec": spec_hash,
        "point": point.to_dict(),
        "fidelity": point.fidelity,
        "fault_plan": (
            point.faults.plan_hash() if point.faults is not None else None
        ),
        "fault_seed": point.seed,
    }
    return canonical.sha256(key)


def spec_keys(spec: SweepSpec) -> list[str]:
    """Store keys for every point of ``spec``, in expansion order."""
    spec_hash = spec.full_hash()
    return [point_key(p, spec_hash=spec_hash) for p in spec.iter_points()]


class StoreEntry:
    """One on-disk blob, as seen by ``cache`` maintenance commands."""

    __slots__ = ("key", "path", "size", "mtime")

    def __init__(self, key: str, path: Path, size: int, mtime: float):
        self.key = key
        self.path = path
        self.size = size
        self.mtime = mtime


class ResultStore:
    """A persistent content-addressed map ``key -> point outcome``.

    Layout: ``<root>/objects/<key[:2]>/<key>.json`` (two-char fan-out
    keeps directories small at millions of entries) plus a best-effort
    cumulative ``counters.json`` at the root.  Blob format::

        {"integrity": "<sha256 of canonical payload>",
         "payload": {"key": "<full key>",
                     "result": {"error": null, "latency": 1.2e-05},
                     "repro": "<version>", "schema": 2}}

    serialised canonically (sorted keys, no whitespace, trailing
    newline).  A read re-hashes the payload and checks both the
    ``integrity`` field and that ``payload.key`` matches the filename —
    any mismatch, parse failure, or missing field is a *miss*: the blob
    is dropped and the caller's write-back repairs it.

    Writes go through a temp file in the final directory followed by
    ``os.replace``, so concurrent writers of the same key are safe:
    readers only ever observe a complete blob (last writer wins, and all
    writers of a key produce identical bytes anyway).
    """

    def __init__(self, root):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        #: session counters (merged into ``counters.json`` by flush)
        self.session_counters = {
            "hits": 0, "misses": 0, "stored": 0, "corrupt": 0,
        }

    # -- paths ---------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    @property
    def counters_path(self) -> Path:
        return self.root / "counters.json"

    # -- blob encoding -------------------------------------------------------

    @staticmethod
    def _encode(key: str, result: dict) -> bytes:
        payload = {
            "key": key,
            "result": {
                "error": result.get("error"),
                "latency": result.get("latency"),
            },
            "repro": __version__,
            "schema": STORE_SCHEMA,
        }
        integrity = canonical.sha256(payload)
        return (
            canonical.dumps({"integrity": integrity, "payload": payload}) + "\n"
        ).encode()

    @staticmethod
    def _decode(key: str, raw: bytes) -> Optional[dict]:
        """Parse + verify a blob; ``None`` on any corruption."""
        try:
            data = json.loads(raw.decode())
            payload = data["payload"]
            integrity = data["integrity"]
            if canonical.sha256(payload) != integrity:
                return None
            if payload["key"] != key:
                return None
            result = payload["result"]
            return {
                "latency": result.get("latency"),
                "error": result.get("error"),
            }
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None

    # -- read path -----------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The cached ``{"latency", "error"}`` outcome, or ``None``.

        Counts a hit or miss; a corrupt blob counts both ``corrupt`` and
        a miss, and the offending file is removed so the next write-back
        repairs the entry.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.session_counters["misses"] += 1
            return None
        result = self._decode(key, raw)
        if result is None:
            self.session_counters["corrupt"] += 1
            self.session_counters["misses"] += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.session_counters["hits"] += 1
        return result

    def get_many(self, keys: Iterable[str]) -> dict[str, dict]:
        """Batch lookup: ``{key: outcome}`` for every present, intact key."""
        out = {}
        for key in keys:
            result = self.get(key)
            if result is not None:
                out[key] = result
        return out

    # -- write path ----------------------------------------------------------

    def put(self, key: str, result: dict) -> None:
        """Atomically store one outcome under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = self._encode(key, result)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.session_counters["stored"] += 1

    def put_result(self, key: str, result: PointResult) -> bool:
        """Store a :class:`PointResult` if it is cacheable (succeeded).

        Errors are never cached: they are deterministic today, but
        caching them would make any future transient failure sticky.
        Returns whether the result was written.
        """
        if not result.ok:
            return False
        self.put(key, {"latency": result.latency, "error": None})
        return True

    # -- maintenance (the ``cache`` CLI) -------------------------------------

    def entries(self) -> Iterator[StoreEntry]:
        """Every blob in the store (sorted by key, deterministic)."""
        if not self.objects.is_dir():
            return
        for shard in sorted(self.objects.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                yield StoreEntry(path.stem, path, stat.st_size, stat.st_mtime)

    def stats(self) -> dict:
        """Entry/byte totals plus the cumulative hit counters."""
        entries = 0
        total_bytes = 0
        for entry in self.entries():
            entries += 1
            total_bytes += entry.size
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA,
            "entries": entries,
            "bytes": total_bytes,
            "counters": self.cumulative_counters(),
        }

    def verify(self) -> dict:
        """Re-hash every blob; report intact and corrupt entries.

        Never deletes — ``verify`` is a diagnostic.  Corrupt entries
        list their key so an operator can inspect before a ``gc`` or a
        re-run repairs them.
        """
        ok = 0
        corrupt: list[str] = []
        for entry in self.entries():
            try:
                raw = entry.path.read_bytes()
            except OSError:
                corrupt.append(entry.key)
                continue
            if self._decode(entry.key, raw) is None:
                corrupt.append(entry.key)
            else:
                ok += 1
        return {
            "root": str(self.root),
            "entries": ok + len(corrupt),
            "ok": ok,
            "corrupt": sorted(corrupt),
        }

    def gc(
        self,
        *,
        older_than: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> dict:
        """Evict blobs by age and/or total size; returns what happened.

        ``older_than`` (seconds) drops every blob whose mtime is older
        than ``now - older_than``.  ``max_bytes`` then evicts
        oldest-first until the remainder fits.  Both criteria compose;
        with neither this is a no-op report.  ``dry_run`` runs the same
        selection but unlinks nothing — the report shows what *would*
        be evicted (``evicted_bytes`` sums the selected sizes).  A
        negative ``max_bytes`` raises :class:`~repro.errors.ReproError`
        before anything is selected.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ReproError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = list(self.entries())
        now = time.time() if now is None else now
        evict: list[StoreEntry] = []
        keep: list[StoreEntry] = []
        for entry in entries:
            if older_than is not None and entry.mtime < now - older_than:
                evict.append(entry)
            else:
                keep.append(entry)
        if max_bytes is not None:
            keep.sort(key=lambda e: (e.mtime, e.key))
            total = sum(e.size for e in keep)
            while keep and total > max_bytes:
                victim = keep.pop(0)
                total -= victim.size
                evict.append(victim)
        evicted_bytes = 0
        if dry_run:
            evicted_bytes = sum(e.size for e in evict)
        else:
            for entry in evict:
                try:
                    entry.path.unlink()
                    evicted_bytes += entry.size
                except OSError:
                    pass
        return {
            "root": str(self.root),
            "scanned": len(entries),
            "evicted": len(evict),
            "evicted_bytes": evicted_bytes,
            "remaining": len(entries) - len(evict),
            "dry_run": dry_run,
        }

    # -- counters ------------------------------------------------------------

    def cumulative_counters(self) -> dict:
        """Persisted counters merged with this session's (read-only)."""
        persisted = self._read_persisted()
        return {
            k: persisted.get(k, 0) + self.session_counters[k]
            for k in self.session_counters
        }

    def _read_persisted(self) -> dict:
        try:
            data = json.loads(self.counters_path.read_text())
            return data if isinstance(data, dict) else {}
        except (OSError, ValueError):
            return {}

    def flush_counters(self) -> None:
        """Merge session counters into ``counters.json`` (best-effort).

        Concurrent flushers can lose increments (read-modify-replace is
        not transactional); the counters are operator telemetry, never a
        correctness input, so that trade keeps reads lock-free.
        """
        if not any(self.session_counters.values()):
            return
        merged = self.cumulative_counters()
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".counters-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(canonical.dumps(merged) + "\n")
            os.replace(tmp, self.counters_path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        for k in self.session_counters:
            self.session_counters[k] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultStore {str(self.root)!r}>"


def store_from_env(environ=None) -> Optional[ResultStore]:
    """The default store (``REPRO_RESULT_STORE``), or ``None``."""
    env = os.environ if environ is None else environ
    path = (env.get(STORE_ENV) or "").strip()
    return ResultStore(path) if path else None


def resolve_store(
    store_path: Optional[str] = None, no_store: bool = False
) -> Optional[ResultStore]:
    """CLI resolution: ``--no-store`` > ``--store PATH`` > environment."""
    if no_store:
        return None
    if store_path:
        return ResultStore(store_path)
    return store_from_env()
