"""Shared-memory transport for precomputed listening patterns.

A :class:`repro.parallel.cache.ListeningCache` pattern is two flat int
arrays (segment starts/ends over two receiver hyperperiods).  Workers
that rebuilt -- or, under ``fork``, copy-on-wrote -- their own copy
multiplied both init time and resident memory by the worker count.
This module packs patterns into ``multiprocessing.shared_memory``
segments of int64 words, so workers map the parent's arrays instead of
copying them.

Lifecycle contract
------------------

* The **parent** owns the segments.  :class:`PatternArena` is owned by
  the persistent pool (:class:`repro.backends.pooled.PooledBackend`):
  segments are append-only, published incrementally from the keyed
  cache registry, and unlinked when the owning pool closes.
* **Workers** receive picklable :class:`PatternHandle` objects (segment
  name plus per-fingerprint offsets) with every sweep chunk -- names
  travel with the work, so the scheme works under both ``fork`` and
  ``spawn`` start methods.  :func:`attach_pattern_arena` maps a segment
  once per worker and registers ``ListeningCache.from_pattern`` views
  in the worker's keyed registry, idempotently per fingerprint.
* Workers never unlink; their mappings are released by an ``atexit``
  hook (memoryviews first, then the segment) so pool shutdown stays
  warning-free.  POSIX keeps a mapped segment's memory valid even after
  the parent unlinks the name, so in-flight chunks are always safe.
"""

from __future__ import annotations

import atexit
from array import array
from dataclasses import dataclass
from multiprocessing import shared_memory

from .cache import ListeningCache, protocol_fingerprint, register_listening_cache

__all__ = [
    "PatternArena",
    "PatternEntry",
    "PatternHandle",
    "attach_pattern_arena",
]

# Patterns below this many segments are copied out of the segment into
# plain lists on attach: list indexing beats memoryview indexing on the
# query hot path, and the copy costs microseconds and kilobytes.  At or
# above it, workers keep zero-copy int64 views -- per-worker memory and
# attach time are what shared memory is for, and exactly the
# large-hyperperiod patterns that dominate memory cross this line.
ZERO_COPY_MIN_SEGMENTS = 4096


@dataclass(frozen=True)
class PatternEntry:
    """Where one receiver's pattern lives inside the shared segment."""

    fingerprint: str
    hyper: int
    threshold: int
    offset: int
    """Index of the first ``starts`` word in the int64 segment."""
    length: int
    """Segments in the pattern; ``ends`` follows at ``offset + length``."""


@dataclass(frozen=True)
class PatternHandle:
    """Picklable description of a published segment (sent with chunks)."""

    shm_name: str
    total_words: int
    entries: tuple[PatternEntry, ...]


def _publish(
    caches: dict[str, ListeningCache],
) -> tuple[shared_memory.SharedMemory, PatternHandle]:
    """Pack the (enabled, non-empty) patterns of ``caches`` into one new
    int64 segment; the caller owns -- and must unlink -- the segment."""
    total_words = sum(2 * c.pattern_segments for c in caches.values())
    shm = shared_memory.SharedMemory(create=True, size=8 * total_words)
    entries = []
    try:
        view = shm.buf.cast("q")
        try:
            offset = 0
            for fp in sorted(caches):
                cache = caches[fp]
                n = cache.pattern_segments
                view[offset : offset + n] = array("q", cache._starts)
                view[offset + n : offset + 2 * n] = array("q", cache._ends)
                entries.append(
                    PatternEntry(
                        fingerprint=fp,
                        hyper=cache.hyper,
                        threshold=cache.threshold,
                        offset=offset,
                        length=n,
                    )
                )
                offset += 2 * n
        finally:
            # The parent only writes; releasing the view immediately
            # keeps close()/unlink() free of exported-pointer errors.
            view.release()
    except BaseException:
        # Packing failed (e.g. a pattern value outside int64): tear the
        # segment down before propagating, so nothing leaks.
        _unlink(shm)
        raise
    return shm, PatternHandle(shm.name, total_words, tuple(entries))


def _unlink(shm: shared_memory.SharedMemory) -> None:
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - double-unlink race
        pass


class PatternArena:
    """Long-lived, incrementally grown pattern store for persistent pools.

    A persistent :class:`repro.backends.pooled.PooledBackend`'s workers
    survive across sweeps, and under ``spawn`` each one would rebuild
    every listening pattern once per protocol before its keyed registry
    went warm.  The arena pins the patterns to the *pool's* lifetime
    instead: the parent packs each batch of not-yet-published patterns
    (resolved through the keyed listening-cache registry) into an
    additional immutable segment, and workers map the segments
    zero-copy on first use (:func:`attach_pattern_arena`), so even a
    spawn-start worker's first chunk finds its patterns already built.

    Segments are append-only -- shared memory cannot grow in place, so
    new fingerprints get a new segment rather than a repack -- and the
    arena never unlinks until :meth:`close`, which the owning pool calls
    from its own ``close()`` (reached via ``Session.__exit__`` releasing
    the last retain reference, or ``shutdown_pooled_backends``).  POSIX
    keeps mapped memory valid past the unlink, so teardown order cannot
    race in-flight chunks.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._by_fingerprint: dict[str, PatternHandle] = {}

    @property
    def segments(self) -> int:
        """Published shared-memory segments currently owned."""
        return len(self._segments)

    @property
    def fingerprints(self) -> frozenset[str]:
        """Fingerprints whose patterns live in some arena segment."""
        return frozenset(self._by_fingerprint)

    def ensure(self, caches: dict[str, ListeningCache]) -> int:
        """Publish one new segment covering the not-yet-arena'd entries
        of ``caches`` (fingerprint -> cache).  Disabled or pattern-less
        caches are skipped -- their per-query fallback path needs no
        transport.  Returns the number of patterns newly published;
        0 means every enabled pattern was already covered (the warm
        path, a dict probe per fingerprint).
        """
        fresh = {
            fingerprint: cache
            for fingerprint, cache in caches.items()
            if fingerprint not in self._by_fingerprint
            and cache.enabled
            and cache.pattern_segments
        }
        if not fresh:
            return 0
        shm, handle = _publish(fresh)
        self._segments.append(shm)
        for entry in handle.entries:
            self._by_fingerprint[entry.fingerprint] = handle
        return len(handle.entries)

    def handles_for(self, fingerprints) -> tuple[PatternHandle, ...]:
        """The minimal handle set covering ``fingerprints`` (patterns
        published together share a segment and therefore a handle);
        unknown fingerprints are simply not covered."""
        handles: list[PatternHandle] = []
        seen: set[str] = set()
        for fingerprint in fingerprints:
            handle = self._by_fingerprint.get(fingerprint)
            if handle is not None and handle.shm_name not in seen:
                seen.add(handle.shm_name)
                handles.append(handle)
        return tuple(handles)

    def close(self) -> None:
        """Unlink every owned segment (idempotent)."""
        segments, self._segments = self._segments, []
        self._by_fingerprint.clear()
        for shm in segments:
            _unlink(shm)

    def __enter__(self) -> "PatternArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

# Mapped segments and every exported memoryview, kept alive for the
# worker's lifetime and torn down (views before segments) at exit.
_ATTACHED_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_ATTACHED_VIEWS: list[memoryview] = []
# Fingerprints this process already registered from an arena segment:
# the guard that makes attach_pattern_arena idempotent per chunk, so a
# worker's segment-backed caches (and their residue memos) survive
# instead of being rebuilt on every submission.
_ARENA_REGISTERED: set[str] = set()
_ATEXIT_REGISTERED = False


def _release_attached() -> None:
    global _ATEXIT_REGISTERED
    for view in reversed(_ATTACHED_VIEWS):
        view.release()
    _ATTACHED_VIEWS.clear()
    for shm in _ATTACHED_SEGMENTS.values():
        try:
            shm.close()
        except BufferError:  # pragma: no cover - stray external view
            pass
    _ATTACHED_SEGMENTS.clear()
    _ARENA_REGISTERED.clear()
    _ATEXIT_REGISTERED = False


def _map_segment(handle: PatternHandle) -> memoryview:
    global _ATEXIT_REGISTERED
    shm = _ATTACHED_SEGMENTS.get(handle.shm_name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=handle.shm_name)
        _ATTACHED_SEGMENTS[handle.shm_name] = shm
        if not _ATEXIT_REGISTERED:
            atexit.register(_release_attached)
            _ATEXIT_REGISTERED = True
    view = shm.buf.cast("q")
    _ATTACHED_VIEWS.append(view)
    return view


def attach_pattern_arena(
    handles: tuple[PatternHandle, ...], receivers
) -> int:
    """Idempotently register arena-backed caches in this worker.

    ``receivers`` is an iterable of ``(protocol, turnaround)`` pairs;
    each one whose fingerprint appears in some handle gets a
    :meth:`ListeningCache.from_pattern` over the mapped segment --
    zero-copy int64 memoryview slices for patterns of at least
    ``ZERO_COPY_MIN_SEGMENTS`` segments, a plain-list copy below that --
    installed via :func:`repro.parallel.cache.register_listening_cache`,
    deliberately replacing fork-inherited private copies.

    This runs on **every** pooled chunk -- a persistent pool has no
    per-sweep initializer -- so it is a cheap no-op once a pattern is
    installed: fingerprints already registered from an arena are
    skipped (preserving the worker's warm residue memos), and only
    genuinely new ones map their segment and register.  Returns the
    number of caches newly registered.
    """
    registered = 0
    for handle in handles:
        by_fp = {entry.fingerprint: entry for entry in handle.entries}
        matched = {}
        for protocol, turnaround in receivers:
            fingerprint = protocol_fingerprint(protocol, turnaround)
            entry = by_fp.get(fingerprint)
            if entry is not None and fingerprint not in _ARENA_REGISTERED:
                matched[fingerprint] = (protocol, turnaround, entry)
        if not matched:
            continue
        view = _map_segment(handle)
        for fingerprint, (protocol, turnaround, entry) in matched.items():
            lo, n = entry.offset, entry.length
            starts = view[lo : lo + n]
            ends = view[lo + n : lo + 2 * n]
            if n >= ZERO_COPY_MIN_SEGMENTS:
                _ATTACHED_VIEWS.extend((starts, ends))
            else:
                starts = list(starts)
                ends = list(ends)
            register_listening_cache(
                fingerprint,
                ListeningCache.from_pattern(
                    protocol, turnaround, entry.hyper, entry.threshold,
                    starts, ends,
                ),
            )
        _ARENA_REGISTERED.update(matched)
        registered += len(matched)
    return registered
