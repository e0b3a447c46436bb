"""Content-addressed on-disk cache of simulation results.

Layout: one JSON file per run under the cache root, named ``<key>.json`` where
``key`` is :meth:`RunSpec.key` (SHA-256 of the spec's canonical form).  Each
file wraps the result payload with an integrity digest (plus the dataset
name, duplicated at the top level so per-dataset pruning can read it from
the file prefix)::

    {"dataset": "<name>", "key": "<spec key>",
     "payload": {...}, "sha256": "<digest of payload JSON>"}

Loads verify both the filename key and the payload digest; any mismatch,
truncation or parse error is treated as a cache miss (the entry is evicted so
the runner recomputes it) rather than returning corrupted data.  Writes are
atomic (temp file + ``os.replace``), so a crashed sweep never leaves a
half-written entry that poisons the next one.  Because entries are
content-addressed and every writer stores byte-identical wrappers for the
same key, many concurrent writers (parallel runners, distributed workers, a
broker -- all sharing one cache root on a common filesystem) can race on one
entry safely: whichever rename lands last wins with the same bytes, and a
rename that fails because a twin got there first is a cache hit, not an
error.

Eviction bookkeeping uses file timestamps only: ``mtime`` is the store time
(FIFO pruning), and ``load`` bumps ``atime`` so LRU pruning can evict the
least-recently-*used* entry instead of the oldest-written one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Eviction orders understood by :meth:`ResultCache.prune`.
PRUNE_POLICIES = ("fifo", "lru")


def payload_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 of a payload's canonical JSON form.

    The single digest definition shared by the on-disk wrapper and the
    distributed result upload (workers digest what they send; the broker
    recomputes before trusting it).

    ``allow_nan=False`` makes a raw non-finite float a loud ``ValueError``
    instead of silently emitting the non-standard ``Infinity``/``NaN``
    tokens, whose parse behaviour differs across JSON implementations and
    would make the digest implementation-dependent; the serialization layer
    encodes non-finite values as sentinel strings before they reach here.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Distinguishes temp files of concurrent writers within one process.
_TMP_SEQUENCE = itertools.count()


class ResultCache:
    """Maps spec keys to serialized result payloads, stored as JSON blobs."""

    #: Temp files older than this are leftovers of a crashed writer.
    _STALE_TMP_SECONDS = 3600.0

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_tmp_files()

    def _sweep_stale_tmp_files(self) -> None:
        """Remove temp files abandoned by crashed writers.

        Only clearly stale files go (age-gated), so a concurrent runner
        mid-``store`` on the same cache root is never disturbed.
        """
        cutoff = time.time() - self._STALE_TMP_SECONDS
        for tmp in self.root.glob("*.tmp.*"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                pass

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the cached payload for ``key``, or ``None`` on miss/corruption.

        A successful load bumps the entry's access time (``atime``; the store
        time in ``mtime`` is untouched), which is what the LRU prune policy
        orders by.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                wrapper = json.load(handle)
        except FileNotFoundError:
            return None  # ordinary cold miss: nothing to evict
        except OSError:
            # Transient I/O trouble (EMFILE, EIO, ...) says nothing about the
            # entry itself -- miss without destroying a valid result.
            return None
        except ValueError:
            self._evict(path)  # unparseable JSON: the entry is corrupt
            return None
        if not isinstance(wrapper, dict):
            self._evict(path)
            return None
        payload = wrapper.get("payload")
        if (
            wrapper.get("key") != key
            or not isinstance(payload, dict)
            or wrapper.get("sha256") != payload_digest(payload)
        ):
            self._evict(path)
            return None
        self._bump_access_time(path)
        return payload

    def _bump_access_time(self, path: Path) -> None:
        """Record a use: ``atime`` = now, ``mtime`` (store time) unchanged.

        Best-effort -- a read-only or concurrently-pruned cache must not turn
        a successful load into an error."""
        try:
            stat = path.stat()
            os.utime(path, ns=(time.time_ns(), stat.st_mtime_ns))
        except OSError:
            pass

    def store(self, key: str, payload: Dict[str, Any]) -> Path:
        """Atomically persist one payload under ``key``; returns its path.

        Safe under concurrent writers sharing the cache root (including over
        NFS-style filesystems where a rename onto a just-renamed entry can
        fail): losing the rename race to a twin entry is treated as a cache
        hit, since entries are content-addressed and both writers carry the
        same bytes.
        """
        wrapper = {"key": key, "sha256": payload_digest(payload), "payload": payload}
        dataset = payload.get("dataset_name")
        if dataset is not None:
            # Duplicated at the top level so per-dataset pruning can read it
            # from the file prefix ("dataset" sorts first) without parsing
            # the whole payload; load() ignores it.
            wrapper["dataset"] = str(dataset)
        path = self.path_for(key)
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}-{threading.get_ident()}-{next(_TMP_SEQUENCE)}"
        )
        with open(tmp, "w", encoding="utf-8") as handle:
            # allow_nan=False: a non-finite float slipping past the sentinel
            # encoding must fail the store, not write non-standard JSON.
            json.dump(wrapper, handle, sort_keys=True, allow_nan=False)
        try:
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            if self.load(key) is not None:
                return path  # a concurrent writer won the race with a valid twin
            raise
        return path

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> List[str]:
        return sorted(path.stem for path in self.root.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------- management
    def _entries(self) -> List[tuple]:
        """``(mtime, size_bytes, path)`` per entry; unstatable files skipped
        (a concurrent prune/evict may remove files mid-scan)."""
        return [
            (mtime, size, path) for mtime, _atime, size, path in self._timed_entries()
        ]

    def _timed_entries(self) -> List[tuple]:
        """``(mtime, atime, size_bytes, path)`` per entry.

        ``mtime`` is the store time; ``atime`` is the last explicit use
        recorded by :meth:`load` (equal to ``mtime`` for never-loaded
        entries, whatever the filesystem's own atime policy, because prune
        clamps it below)."""
        entries = []
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            # relatime/noatime mounts may leave st_atime behind st_mtime;
            # an entry is never "used before it was stored".
            atime = max(stat.st_atime, stat.st_mtime)
            entries.append((stat.st_mtime, atime, stat.st_size, path))
        return entries

    def stats(self) -> Dict[str, Any]:
        """Size/age summary of the cache (the ``dalorex cache stats`` payload)."""
        entries = self._entries()
        total_bytes = sum(size for _mtime, size, _path in entries)
        mtimes = [mtime for mtime, _size, _path in entries]
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": total_bytes,
            "oldest_mtime": min(mtimes) if mtimes else None,
            "newest_mtime": max(mtimes) if mtimes else None,
        }

    def prune(
        self, max_size_bytes: int, dry_run: bool = False, policy: str = "fifo"
    ) -> List[str]:
        """Evict entries until the cache fits ``max_size_bytes``.

        ``policy`` picks the eviction order:

        * ``"fifo"`` (default) -- oldest *store* time first (``mtime``); a
          loaded entry's store time never changes, so re-storing (refresh) is
          the only way to make an entry young again.
        * ``"lru"`` -- least recently *used* first: :meth:`load` bumps the
          access time, so hot entries survive even when they were written
          first.

        Returns the evicted keys, first-evicted first.  ``dry_run`` reports
        what would be evicted without deleting anything.  An entry that
        cannot be deleted (permissions, concurrent access) is not reported as
        evicted and does not count towards the freed budget.
        """
        if max_size_bytes < 0:
            raise ValueError(f"max_size_bytes must be >= 0, got {max_size_bytes}")
        if policy not in PRUNE_POLICIES:
            raise ValueError(
                f"unknown prune policy {policy!r}; choose from {PRUNE_POLICIES}"
            )
        entries = sorted(
            (mtime if policy == "fifo" else atime, size, path)
            for mtime, atime, size, path in self._timed_entries()
        )
        total = sum(size for _order, size, _path in entries)
        evicted = []
        for _order, size, path in entries:
            if total <= max_size_bytes:
                break
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue  # undeletable: still on disk, still counted
            evicted.append(path.stem)
            total -= size
        return evicted

    #: Matches the top-level ``"dataset"`` field in a wrapper's first bytes
    #: (it sorts before "key"/"payload"/"sha256" in the canonical form).
    _DATASET_PREFIX = re.compile(r'\{"dataset":\s*("(?:[^"\\]|\\.)*")')

    def entry_dataset(self, path: Path) -> Optional[str]:
        """Dataset name recorded in one cache entry, or ``None`` when the
        entry cannot be read (corrupt entries are left for :meth:`load` to
        evict on their natural path).

        Entries written since the field was added resolve from the file's
        first bytes; older entries fall back to a full parse of the payload.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                head = handle.read(4096)
                match = self._DATASET_PREFIX.match(head)
                if match:
                    return str(json.loads(match.group(1)))
                handle.seek(0)
                wrapper = json.load(handle)
            dataset = wrapper["payload"]["dataset_name"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return str(dataset)

    def prune_per_dataset(
        self, max_entries: int, dry_run: bool = False, policy: str = "fifo"
    ) -> List[str]:
        """Keep at most ``max_entries`` cache entries per dataset.

        Within each dataset the same ordering the size-based :meth:`prune`
        uses applies (``fifo`` = oldest store time first, ``lru`` = least
        recently loaded first), so the two compose: quota first, then the
        size cap over what survives.  Entries whose dataset cannot be
        determined (corrupt or foreign files) are never counted against any
        quota and never evicted here.

        Returns the evicted keys, first-evicted first.
        """
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if policy not in PRUNE_POLICIES:
            raise ValueError(
                f"unknown prune policy {policy!r}; choose from {PRUNE_POLICIES}"
            )
        groups: Dict[str, List[tuple]] = {}
        for mtime, atime, _size, path in self._timed_entries():
            dataset = self.entry_dataset(path)
            if dataset is None:
                continue
            order = mtime if policy == "fifo" else atime
            groups.setdefault(dataset, []).append((order, path))
        evicted = []
        for dataset in sorted(groups):
            entries = sorted(groups[dataset])
            excess = len(entries) - max_entries
            for order, path in entries[:max(0, excess)]:
                if not dry_run:
                    try:
                        path.unlink()
                    except OSError:
                        continue  # undeletable: keeps counting against the quota
                evicted.append(path.stem)
        return evicted
