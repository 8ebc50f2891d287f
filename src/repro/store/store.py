"""The content-addressed :class:`ResultStore`.

See :mod:`repro.store` for the layout and fingerprint contract.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path

from ..api.result import RunResult
from .fingerprint import FINGERPRINT_FORMAT, run_fingerprint

__all__ = ["ResultStore", "DEFAULT_STORE_ROOT"]

#: The repository-conventional store location (next to the pinned CSVs).
DEFAULT_STORE_ROOT = "results/store"


class ResultStore:
    """Content-addressed, crash-tolerant persistence for
    :class:`~repro.api.RunResult`.

    * **Atomic writes** -- entries are written to a temp file in the
      destination directory and ``os.replace``d into place, so a reader
      (or a concurrent writer) never observes a torn entry; last writer
      wins with identical content, since the key is content-addressed.
    * **In-process LRU** -- the hottest ``memory_entries`` results are
      served without touching disk.
    * **On-disk eviction** -- :meth:`gc` applies TTL (age since last
      access) then LRU (keep the ``max_entries`` most recently used);
      reads ``touch`` their entry so recency tracks use, not creation.
    * **Corruption tolerance** -- an unreadable or mismatched entry is
      moved to ``quarantine/`` and reported as a miss, never raised.
    * **Sharing semantics** -- results are immutable, so :meth:`get`
      returns one shared snapshot per entry (memory hits hand out the
      LRU's own object, a disk hit parses and freezes the entry once)
      and :meth:`put` remembers the caller's result itself.  No call
      copies a result, and no caller can contaminate another caller or
      the persisted entry: every mutation attempt raises
      ``TypeError``.
    * **Thread safety** -- one store instance may be shared across
      threads (the parallel :class:`~repro.campaign.CampaignRunner`
      does exactly that): the in-process LRU and the ``stats`` counters
      are lock-protected, writes are atomic at the filesystem level,
      and concurrent ``put`` under one fingerprint is last-writer-wins
      -- harmless by construction, since the key is content-addressed
      and both writers carry the same numbers.
    """

    def __init__(
        self,
        root=DEFAULT_STORE_ROOT,
        memory_entries: int = 128,
        max_entries: int | None = None,
        ttl_seconds: float | None = None,
    ) -> None:
        self.root = Path(root)
        self.memory_entries = int(memory_entries)
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self._memory: OrderedDict[str, RunResult] = OrderedDict()
        self._lock = threading.RLock()
        self.stats = {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0}

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(verb: str, spec) -> str:
        """Delegates to :func:`repro.store.run_fingerprint`."""
        return run_fingerprint(verb, spec)

    def _object_path(self, fingerprint: str) -> Path:
        return self.root / "objects" / fingerprint[:2] / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> RunResult | None:
        """The stored result for ``fingerprint``, or ``None`` on miss.

        A hit is the **shared immutable snapshot**: memory hits return
        the LRU's own object, disk hits parse (and freeze) the entry
        once and remember it.  Nothing is copied per call; callers
        attach per-call provenance with ``dataclasses.replace``.
        """
        with self._lock:
            cached = self._memory.get(fingerprint)
            if cached is not None:
                self._memory.move_to_end(fingerprint)
                self.stats["hits"] += 1
                return cached
        path = self._object_path(fingerprint)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("format") != FINGERPRINT_FORMAT:
                raise ValueError(f"unknown entry format {payload.get('format')!r}")
            if payload.get("fingerprint") != fingerprint:
                raise ValueError("entry fingerprint does not match its path")
            result = RunResult.from_dict(payload["result"])
        except OSError:  # FileNotFoundError included: a plain miss
            with self._lock:
                self.stats["misses"] += 1
            return None
        except (json.JSONDecodeError, ValueError, KeyError, TypeError):
            self._quarantine(path)
            with self._lock:
                self.stats["misses"] += 1
            return None
        try:
            os.utime(path)  # recency for the on-disk LRU
        except OSError:
            pass
        with self._lock:
            self._remember(fingerprint, result)
            self.stats["hits"] += 1
        return result

    def put(self, fingerprint: str, result: RunResult) -> Path:
        """Persist ``result`` under ``fingerprint`` atomically.

        The in-process LRU remembers ``result`` itself -- it is
        immutable, so sharing it with the caller is safe -- minus any
        per-call ``store_meta``.  Concurrent ``put`` under one
        fingerprint is last-writer-wins: both the ``os.replace`` and the
        LRU insert are atomic, and a content-addressed key means both
        writers carry the same numbers, so either order leaves a
        consistent entry.
        """
        path = self._object_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "format": FINGERPRINT_FORMAT,
            "fingerprint": fingerprint,
            "saved_unix": time.time(),
            "result": result.to_dict(),
        }
        blob = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=path.parent,
            prefix=f".{fingerprint[:12]}.",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(blob)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        with self._lock:
            self._remember(fingerprint, result.clone())
            self.stats["writes"] += 1
        return path

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._memory:
                return True
        return self._object_path(fingerprint).exists()

    def known_fingerprints(self) -> set[str]:
        """Every fingerprint currently persisted on disk."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return set()
        return {path.stem for path in objects.glob("*/*.json")}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_payload(self) -> dict:
        """One JSON-shaped snapshot of the store's state: on-disk
        object count and total bytes, quarantine count, the in-process
        memory LRU's occupancy/limit, and the lifetime hit/miss/write/
        corrupt counters (``repro-nd store stats`` and the service
        ``stats`` verb both serve exactly this)."""
        objects = self.root / "objects"
        count = 0
        total_bytes = 0
        if objects.is_dir():
            for path in objects.glob("*/*.json"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue  # racing a concurrent gc: skip, don't crash
                count += 1
        quarantine = self.root / "quarantine"
        quarantined = (
            sum(1 for _ in quarantine.glob("*.json"))
            if quarantine.is_dir()
            else 0
        )
        with self._lock:
            counters = dict(self.stats)
            memory_entries = len(self._memory)
        return {
            "root": str(self.root),
            "objects": count,
            "total_bytes": total_bytes,
            "quarantined": quarantined,
            "memory": {
                "entries": memory_entries,
                "limit": self.memory_entries,
            },
            "counters": counters,
        }

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def gc(
        self,
        max_entries: int | None = None,
        ttl_seconds: float | None = None,
        dry_run: bool = False,
    ) -> dict:
        """Apply TTL then LRU eviction to the on-disk store.

        Arguments default to the limits configured at construction; both
        ``None`` means the scan is a no-op beyond reporting.  Recency is
        file mtime, which :meth:`get` refreshes on every disk read.

        The report accounts for every entry exactly once: ``scanned``
        is the number of entries enumerated, ``removed`` the doomed
        entries actually unlinked, ``failed`` the doomed entries whose
        unlink raised (they stay on disk, but are dropped from the
        in-process LRU either way -- a doomed entry must not keep being
        served from memory), and ``kept`` the survivors, with
        ``scanned == len(removed) + len(failed) + kept``.
        """
        if max_entries is None:
            max_entries = self.max_entries
        if ttl_seconds is None:
            ttl_seconds = self.ttl_seconds
        objects = self.root / "objects"
        entries = []
        if objects.is_dir():
            for path in objects.glob("*/*.json"):
                try:
                    entries.append((path.stat().st_mtime, path))
                except OSError:
                    continue
        entries.sort()  # oldest first
        scanned = len(entries)
        now = time.time()
        doomed = []
        if ttl_seconds is not None:
            fresh = []
            for mtime, path in entries:
                if now - mtime > ttl_seconds:
                    doomed.append(path)
                else:
                    fresh.append((mtime, path))
            entries = fresh
        if max_entries is not None and len(entries) > max_entries:
            excess = len(entries) - max_entries
            doomed.extend(path for _, path in entries[:excess])
            entries = entries[excess:]
        removed = []
        failed = []
        for path in doomed:
            if dry_run:
                removed.append(path.stem)
                continue
            # Doomed entries leave the memory LRU whether or not the
            # unlink below succeeds: an entry past its TTL/LRU budget
            # must not keep being served from memory.
            with self._lock:
                self._memory.pop(path.stem, None)
            try:
                path.unlink()
            except OSError:
                failed.append(path.stem)
                continue
            removed.append(path.stem)
        return {
            "scanned": scanned,
            "removed": removed,
            "failed": failed,
            "kept": len(entries),
            "dry_run": dry_run,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _remember(self, fingerprint: str, result: RunResult) -> None:
        """Insert an immutable snapshot into the LRU (caller holds
        ``_lock``)."""
        if self.memory_entries <= 0:
            return
        self._memory[fingerprint] = result
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is diagnosable but inert."""
        with self._lock:
            self.stats["corrupt"] += 1
        target = self.root / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def __repr__(self) -> str:
        return (
            f"ResultStore(root={str(self.root)!r}, "
            f"memory_entries={self.memory_entries})"
        )
