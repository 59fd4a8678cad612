"""Content-addressed result cache for campaign points.

A campaign point is identified by a **stable content hash** of everything
that determines its result: the task reference and version, the merged
parameter dict (canonicalised, so dict insertion order never matters), and
the point's seed.  Parameters may contain numbers, strings, booleans,
``None``, (nested) lists/tuples/dicts, numpy scalars and arrays, and any
object exposing a ``fingerprint()`` method — in particular
:class:`~repro.core.circuit.QuditCircuit`, whose fingerprint covers its
exact gate/Kraus bytes.  Hashing uses :mod:`hashlib` only (never Python's
per-process-salted ``hash``), so keys are identical across worker
processes, sessions, and machines.

The on-disk layout is one JSON file per key, sharded by the key's first
two hex characters.  Writes are atomic (temp file + ``os.replace``) so a
crashed or killed worker can never leave a *truncated* entry behind — and
if one ever appears anyway (e.g. a torn copy), unreadable entries are
treated as misses and quietly evicted.  *Removals* follow the same
discipline in reverse: an entry is atomically renamed aside before it is
unlinked, and a conditional removal (the corrupt-entry heal path) first
re-validates the renamed file — so racing a concurrent ``put`` can never
destroy a freshly-written good entry.

A long-lived cache can be bounded with ``max_bytes`` / ``max_entries``:
hits touch the entry's mtime (an access-time stamp), and :meth:`evict`
removes least-recently-accessed entries until the cache fits its caps.
Eviction runs opportunistically every ``evict_interval`` writes, so a
campaign loop never needs to manage the cache's size explicitly.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import tempfile
import time
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from ..core.exceptions import SimulationError
from ..obs import metrics as _metrics
from ..obs.ledger import LEDGER_FILENAME, RunLedger

__all__ = ["stable_hash", "point_key", "ResultCache", "MISS"]

#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISS = object()


def _str_bytes(obj: str) -> bytes:
    raw = obj.encode()
    return b"s%d:%s" % (len(raw), raw)


def _float_bytes(obj: float) -> bytes:
    # float.hex() is exact and locale/platform independent.
    return f"f{obj.hex()};".encode()


#: Encodings of the exact builtin scalar types, tried before the general
#: ``isinstance`` chain (which also covers their subclasses and numpy's
#: scalars) because nearly every parameter value is one of them.
_SCALARS: dict[type, Callable[[Any], bytes]] = {
    type(None): lambda obj: b"N;",
    str: _str_bytes,
    bool: lambda obj: b"b1;" if obj else b"b0;",
    int: lambda obj: b"i%d;" % obj,
    float: _float_bytes,
}


def _feed(write: Callable[[bytes], Any], obj: object) -> None:
    """Write one object's canonical encoding through ``write``.

    Every value is prefixed with a type tag so values of different types
    can never collide (``1`` vs ``1.0`` vs ``"1"``), and containers are
    length-prefixed so concatenations can't alias.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        write(scalar(obj))
    elif isinstance(obj, Canonical):
        write(obj.raw)
    elif isinstance(obj, Mapping):
        # Canonical order: items sorted by the digest of their key, so any
        # insertion order (and any hashable key type) yields one encoding.
        items = sorted(obj.items(), key=_item_order)
        write(f"d{len(items)}:".encode())
        for key, value in items:
            _feed(write, key)
            _feed(write, value)
    elif isinstance(obj, (list, tuple)) or (
        isinstance(obj, Sequence) and not isinstance(obj, (str, bytes))
    ):
        write(f"l{len(obj)}:".encode())
        for item in obj:
            _feed(write, item)
    elif isinstance(obj, str):
        write(_str_bytes(obj))
    elif isinstance(obj, (bool, np.bool_)):
        write(b"b1;" if obj else b"b0;")
    elif isinstance(obj, (int, np.integer)):
        write(b"i%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        write(_float_bytes(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        obj = complex(obj)
        write(f"c{obj.real.hex()},{obj.imag.hex()};".encode())
    elif isinstance(obj, bytes):
        write(f"y{len(obj)}:".encode())
        write(obj)
    elif isinstance(obj, np.ndarray):
        if obj.dtype == object:
            # tobytes() on an object array serialises raw pointers —
            # different in every process, which would silently break both
            # cache hits and the serial==parallel seed guarantee.
            raise SimulationError(
                "cannot stably hash an object-dtype numpy array — use a "
                "list (or a homogeneous numeric array) instead"
            )
        arr = np.ascontiguousarray(obj)
        write(f"a{arr.dtype.str}{arr.shape};".encode())
        write(arr.tobytes())
    elif hasattr(obj, "fingerprint") and callable(obj.fingerprint):
        write(f"F{type(obj).__name__}:".encode())
        _feed(write, obj.fingerprint())
    else:
        raise SimulationError(
            f"cannot stably hash {type(obj).__name__!r} — campaign "
            f"parameters must be JSON-like values, numpy data, or objects "
            f"with a fingerprint() method"
        )


@functools.lru_cache(maxsize=4096)
def _str_digest(key: str) -> str:
    # Parameter names repeat across every point of every campaign, so
    # their sort digests are memoised; the digest is a pure function of
    # the string.  Only exact ``str`` keys come here: ``1``, ``1.0`` and
    # ``True`` compare equal and would share one memo entry.
    return stable_hash(key)


def _item_order(item: tuple[Any, Any]) -> str:
    key = item[0]
    return _str_digest(key) if type(key) is str else stable_hash(key)


class Canonical:
    """A value's canonical encoding, computed once.

    Hashing a :class:`Canonical` (alone or nested in a container) gives
    the same digest as hashing the value itself, so a point's parameters
    can be encoded once and then hashed into both its seed and its key.
    """

    __slots__ = ("raw",)

    def __init__(self, obj: object) -> None:
        parts: list[bytes] = []
        _feed(parts.append, obj)
        self.raw = b"".join(parts)


def stable_hash(obj: object) -> str:
    """Process-independent SHA-256 hex digest of a parameter-like value."""
    hasher = hashlib.sha256()
    _feed(hasher.update, obj)
    return hasher.hexdigest()


def point_key(
    task: str,
    version: str,
    params: Mapping[str, Any] | Canonical,
    seed: int | None,
) -> str:
    """Cache key of one campaign point.

    Covers the task's identity and version, every parameter (order-
    independently), and the seed — so the key changes whenever the
    circuit content, backend caps, parameter values, or seed change, and
    *only* then.
    """
    if not isinstance(params, Canonical):
        params = dict(params)
    return stable_hash(
        {"task": task, "version": version, "params": params, "seed": seed}
    )


#: Unique per-process suffix stream for rename-aside tombstones.
_TOMB_COUNTER = itertools.count()


#: Age after which an orphaned dot-file (an atomic-write temp or a
#: rename-aside tombstone left by a crash mid-removal) is swept by
#: :meth:`ResultCache.evict`.  Generous enough that no in-flight write
#: or removal can be this old.
_ORPHAN_TTL_S = 3600.0


class ResultCache:
    """On-disk store mapping point keys to JSON-serialisable values.

    Args:
        root: cache directory (created on first write).
        max_bytes: total payload-byte cap; least-recently-accessed
            entries are evicted to fit (``None`` = unbounded).
        max_entries: entry-count cap, same policy (``None`` = unbounded).
        evict_interval: writes between opportunistic :meth:`evict` scans
            when a cap is set (each scan stats every entry, so per-write
            eviction is kept off the hot path by default).

    Concurrent use is safe: entries are immutable once written (same key
    == same computation), writes are atomic renames, and removals rename
    the entry aside before unlinking — a torn or racing state can lose a
    cache hit (recomputed harmlessly) but never corrupt one.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        evict_interval: int = 64,
    ) -> None:
        self.root = Path(root)
        if max_bytes is not None and max_bytes < 0:
            raise SimulationError("max_bytes must be >= 0")
        if max_entries is not None and max_entries < 0:
            raise SimulationError("max_entries must be >= 0")
        if evict_interval < 1:
            raise SimulationError("evict_interval must be >= 1")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.evict_interval = evict_interval
        self._puts_since_evict = 0
        #: Lifetime operation counts for this cache object (always kept;
        #: mirrored into the metrics registry when collection is on).
        self._counts = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "evictions": 0,
            "corrupt_healed": 0,
        }

    @property
    def _bounded(self) -> bool:
        return self.max_bytes is not None or self.max_entries is not None

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def ledger_path(self) -> Path:
        """Where this cache's co-located run ledger lives.

        A root-level file: entry shards are ``<root>/xx/<key>.json``, so
        the ``*/*.json`` scans (caps, eviction, ``__len__``) never see
        it and ledger growth cannot evict cache entries.
        """
        return self.root / LEDGER_FILENAME

    def ledger(self) -> RunLedger:
        """The run ledger co-located with this cache."""
        return RunLedger(self.ledger_path)

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`MISS`.

        A corrupted (truncated, non-JSON, wrong-shape) entry is healed:
        it is renamed aside, re-validated (a concurrent ``put`` may have
        replaced it with a good entry between our read and the removal —
        in that case the fresh entry is restored and its value returned),
        and only then unlinked.  A *transient* read failure (OSError —
        fd exhaustion under a wide worker pool, a flaky network
        filesystem) is just a miss: the entry is left in place for the
        next lookup.
        """
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:  # includes FileNotFoundError
            self._count("misses", "cache_misses")
            return MISS
        try:
            payload = json.loads(text)
            if payload["key"] != key:
                raise ValueError("key mismatch")
        except (ValueError, KeyError, TypeError):
            removed, recovered = self._discard(path, expect_key=key)
            if removed:
                self._count("corrupt_healed", "cache_corrupt_healed")
            if recovered is MISS:
                self._count("misses", "cache_misses")
            else:
                self._count("hits", "cache_hits")
            return recovered
        if self._bounded:
            self._touch(path)
        self._count("hits", "cache_hits")
        return payload["value"]

    def put(self, key: str, value: Any, *, ok: bool = True) -> None:
        """Atomically persist one value (must be JSON-serialisable).

        Only *successful* point values belong in the cache: a cached
        entry is served forever (same key == same computation), so
        caching a failure would turn a transient fault into a permanent
        wrong answer.  The executor only caches ``ok`` outcomes; the
        ``ok`` flag lets any other caller assert the same contract —
        ``put(key, record, ok=False)`` raises instead of poisoning the
        store.
        """
        if not ok:
            raise SimulationError(
                f"refusing to cache a failed point value for key {key[:12]}…: "
                f"the result cache stores successful computations only"
            )
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"key": key, "value": value})
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._count("puts", "cache_puts")
        if self._bounded:
            self._puts_since_evict += 1
            if self._puts_since_evict >= self.evict_interval:
                self.evict()

    # -- lifecycle ---------------------------------------------------
    def _count(self, field: str, metric: str, n: int = 1) -> None:
        """Bump one lifetime counter (+ registry mirror when enabled)."""
        self._counts[field] += n
        if _metrics.enabled:
            _metrics.inc(metric, n)

    @staticmethod
    def _touch(path: Path) -> None:
        """Stamp an access time (mtime) on a hit — the LRU signal."""
        try:
            os.utime(path)
        except OSError:
            pass  # the entry may have just been evicted; still a hit

    def _discard(
        self, path: Path, *, expect_key: str | None = None
    ) -> tuple[bool, Any]:
        """Remove one entry file with the atomic rename-aside discipline.

        The entry is first atomically renamed to a unique dot-prefixed
        tombstone (invisible to :meth:`__len__` / :meth:`stats`), so no
        step here can ever tear a shard file a concurrent reader or
        writer is using.  With ``expect_key`` the removal is
        *conditional*: the tombstone is re-validated, and if it parses as
        a good entry for that key — meaning a concurrent ``put`` landed
        between the caller's corrupt read and this removal — it is
        renamed back into place and its value returned instead of
        destroyed.

        Returns:
            ``(removed, recovered)`` — whether an entry was actually
            removed, and the recovered value when a conditional removal
            found a valid racing entry (else :data:`MISS`).
        """
        tomb = path.with_name(f".evict-{os.getpid()}-{next(_TOMB_COUNTER)}.json")
        try:
            os.replace(path, tomb)
        except OSError:
            # Already gone — someone else removed or replaced it first.
            return False, MISS
        if expect_key is not None:
            try:
                payload = json.loads(tomb.read_text())
                valid = payload["key"] == expect_key and "value" in payload
            except (OSError, ValueError, KeyError, TypeError):
                valid = False
            if valid:
                # We grabbed a freshly-written good entry: put it back.
                # (Entries are immutable per key, so even if yet another
                # put landed meanwhile, the content is identical.)
                try:
                    os.replace(tomb, path)
                    return False, payload["value"]
                except OSError:
                    return False, MISS
        try:
            os.unlink(tomb)
        except OSError:
            pass
        return True, MISS

    def _entries(self) -> list[tuple[int, int, Path]]:
        """Live entries as ``(atime_ns, size, path)``, oldest first.

        Dot-prefixed files (atomic-write temps, eviction tombstones) are
        skipped; entries that vanish mid-scan are skipped too.
        """
        if not self.root.exists():
            return []
        records = []
        for path in self.root.glob("*/*.json"):
            if path.name.startswith("."):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            records.append((stat.st_mtime_ns, stat.st_size, path))
        records.sort(key=lambda record: (record[0], record[2].name))
        return records

    def stats(self) -> dict:
        """Occupancy, caps, and lifetime operation counts.

        ``{entries, total_bytes, max_bytes, max_entries}`` describe the
        store on disk (shared by every process using the directory);
        ``{hits, misses, puts, evictions, corrupt_healed}`` count this
        cache *object's* operations since construction.
        """
        records = self._entries()
        return {
            "entries": len(records),
            "total_bytes": sum(size for _, size, _ in records),
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            **self._counts,
        }

    def evict(self) -> dict:
        """Remove least-recently-accessed entries until the caps fit.

        Access time is the entry's mtime: stamped by ``put`` and
        refreshed by every bounded-cache ``get`` hit, so the removal
        order is true LRU.  Safe under concurrency — each removal is an
        atomic rename-aside, and losing a racing entry only costs a
        recomputation.

        Stale dot-files — atomic-write temps and tombstones orphaned by
        a crash between rename-aside and unlink — are invisible to the
        caps accounting, so each eviction scan also sweeps any older
        than an hour (in-flight files are never that old).

        Returns:
            ``{"evicted_entries", "evicted_bytes", "entries",
            "total_bytes"}`` describing what was removed and what
            remains.
        """
        self._puts_since_evict = 0
        cutoff = time.time() - _ORPHAN_TTL_S
        if self.root.exists():
            for orphan in self.root.glob("*/.*.json"):
                try:
                    if orphan.stat().st_mtime < cutoff:
                        orphan.unlink()
                except OSError:
                    continue
        records = self._entries()
        n_entries = len(records)
        total_bytes = sum(size for _, size, _ in records)
        evicted = 0
        evicted_bytes = 0
        for _, size, path in records:
            over_entries = (
                self.max_entries is not None and n_entries > self.max_entries
            )
            over_bytes = self.max_bytes is not None and total_bytes > self.max_bytes
            if not (over_entries or over_bytes):
                break
            removed, _recovered = self._discard(path)
            if removed:
                evicted += 1
                evicted_bytes += size
            n_entries -= 1
            total_bytes -= size
        if evicted:
            self._count("evictions", "cache_evictions", evicted)
        return {
            "evicted_entries": evicted,
            "evicted_bytes": evicted_bytes,
            "entries": n_entries,
            "total_bytes": total_bytes,
        }

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not MISS

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        # Exclude orphaned atomic-write temp files (".tmp-*.json" left by
        # a worker killed mid-put) — pathlib's "*" matches dotfiles.
        return sum(
            1 for path in self.root.glob("*/*.json") if not path.name.startswith(".")
        )
