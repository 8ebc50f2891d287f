"""Memoized listening-set evaluation for offset sweeps.

Every offset evaluated by :func:`repro.simulation.analytic.sweep_offsets`
re-derives the receiver's effective listening set (reception windows
minus own-transmission blocking) segment-by-segment for each candidate
beacon.  That work repeats heavily across a sweep: away from time zero
the listening set is *periodic* with the receiver's schedule hyperperiod
``H = lcm(T_C, T_B)`` and shifts rigidly with the phase, so a decode
decision depends only on the phase residue
``(packet_start - rx_phase) mod H`` (plus packet length and reception
model).  Translation invariance only breaks near time zero, where
beacons scheduled before boot never went on air: blocks of those beacons
all end before ``max_beacon_duration + turnaround``.

:class:`ListeningCache` therefore precomputes the periodic pattern once
-- two hyperperiods of exact listening segments, so any query interval
of length up to ``H`` falls inside the linear list -- and answers each
decode query with a binary search instead of rebuilding segments:

* queries with ``start >= max_beacon_duration + turnaround`` are past
  the boot boundary and answered from the precomputed pattern;
* earlier queries, non-integer schedules, and degenerate shapes (packet
  longer than the hyperperiod, pattern too large to precompute) take the
  uncached exact path;

so the cache is *bit-identical* to the direct computation by
construction.  The pattern stores segments exactly as
:func:`repro.simulation.analytic.listening_segments` returns them --
unmerged, abutting windows kept distinct -- because the CONTAINMENT
model's equality test distinguishes one spanning segment from two
abutting ones.

The vectorized kernels do not send every boot-region query down the
exact path: :meth:`ListeningCache.boot_ends` screens them.  Near boot
the exact listening set differs from the pattern only by the blocks of
the receiver's own beacons scheduled before time 0, which never went
on air, and each such block ends by its beacon's start plus the
threshold.  So from the latest pre-zero beacon start plus the threshold
on (a lane's *boot end*), the pattern decision is exact.  Before it,
removing blocks only adds listening time, so a pattern "heard" is exact
too, in all three reception models; only a pattern "not heard" before
the boot end takes the exact path.

One cache per receiver is shared across all chunks a worker process
evaluates; the sweep kernels of :mod:`repro.backends` (including the
reference ``CachedPairEvaluator`` hot loop) mirror
:func:`repro.simulation.analytic.mutual_discovery_times` on top of it.

Process-wide keyed registry (PR 2)
----------------------------------

Building a pattern is one linear pass over two hyperperiods of
windows and own-beacon blocks, and sweep drivers used to rebuild it for
every ``verified_worst_case``/``sweep_offsets`` call even when the
protocol zoo never changed.  :func:`get_listening_cache` therefore memoizes
caches process-wide, keyed by :func:`protocol_fingerprint` -- a SHA-256
digest of the *schedule contents* (beacon times/durations/period,
window starts/durations/period, the turnaround guard and the pattern
size limit).  The invalidation contract:

* **Keys cannot go stale.**  :class:`repro.core.sequences.NDProtocol`
  and both schedule classes are immutable (frozen dataclasses over
  tuples), so a fingerprint permanently identifies the exact listening
  behaviour it was computed from.  Two protocol objects with equal
  schedules share one cache; mutating a protocol is impossible without
  constructing a new object, which gets a new fingerprint.
* **Explicit invalidation exists for memory, not correctness.**
  :func:`invalidate_listening_caches` drops one fingerprint or the
  whole registry -- use it to reclaim memory after sweeping
  large-hyperperiod protocols, or to force a cold rebuild in
  benchmarks.  The registry also self-bounds (LRU eviction past
  ``_REGISTRY_CAP`` entries), so pathological zoos degrade to PR-1
  per-sweep rebuilds instead of growing without bound.
* **Fork and spawn.**  Worker processes forked mid-session inherit
  the parent's registry; entries are immutable after construction, so
  the copies stay correct.  Spawned workers start empty and build each
  pattern on first use, like any cold process.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right

from ..core.sequences import NDProtocol
from ..simulation.analytic import (
    listening_segments,
    packet_heard,
    ReceptionModel,
)

__all__ = [
    "ListeningCache",
    "derive_seed",
    "protocol_fingerprint",
    "get_listening_cache",
    "invalidate_listening_caches",
    "listening_cache_stats",
]


def derive_seed(base_seed: int, index: int) -> int:
    """A stable per-item seed for sharded runs.

    Hash-derived (not ``base_seed + index``) so neighbouring items do
    not get correlated RNG streams, and a pure function of the item's
    *global* index so results are independent of how items are chunked
    across workers -- the serial and parallel grid drivers both use it.
    """
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _all_int(*values) -> bool:
    return all(isinstance(v, int) for v in values)


def _numpy(caller: str):
    """The NumPy module, or ``BackendUnavailable`` naming ``caller``."""
    from ..backends import _np

    if _np.np is None:
        from ..backends.base import BackendUnavailable

        raise BackendUnavailable(
            f"{caller} needs NumPy; install the [fast] extra or use the "
            f"list-backed pattern directly"
        )
    return _np.np


# ----------------------------------------------------------------------
# Process-wide keyed registry: protocol fingerprint -> ListeningCache
# ----------------------------------------------------------------------

_DEFAULT_MAX_SEGMENTS = 1 << 22
_MEMO_CAP = 1 << 18
# Patterns below this size answer queries by direct bisect: on short
# segment lists the binary search is as cheap as a dict probe, so the
# residue memo would only pay insertion overhead.
_MEMO_MIN_SEGMENTS = 256
_REGISTRY: dict[str, "ListeningCache"] = {}
# LRU bound on registered caches.
_REGISTRY_CAP = 64
_STATS = {"hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}
# Guards _REGISTRY/_STATS: concurrent worker sessions (the service's
# compute threads) share this registry.  Pattern *builds* stay outside
# the lock -- a lost race costs one redundant build, never a torn
# registry.
_REGISTRY_LOCK = threading.RLock()


def protocol_fingerprint(
    receiver: NDProtocol,
    turnaround: int = 0,
    max_segments: int = _DEFAULT_MAX_SEGMENTS,
) -> str:
    """Stable content key of a receiver's listening behaviour.

    Hashes exactly the inputs :class:`ListeningCache` reads -- schedule
    times, durations and periods (``repr`` keeps ``100`` and ``100.0``
    distinct, matching the cache's integer-grid preconditions), the
    turnaround guard and the pattern size limit.  Identity, ``alpha``
    and the protocol's display name are deliberately excluded: equal
    schedules share one pattern.
    """
    parts = [repr(turnaround), repr(max_segments)]
    beacons = receiver.beacons
    if beacons is None:
        parts.append("B=None")
    else:
        parts.append(
            f"B={beacons.period!r}:"
            + ";".join(f"{b.time!r},{b.duration!r}" for b in beacons.beacons)
        )
    reception = receiver.reception
    if reception is None:
        parts.append("C=None")
    else:
        parts.append(
            f"C={reception.period!r}:"
            + ";".join(
                f"{w.start!r},{w.duration!r}" for w in reception.windows
            )
        )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def get_listening_cache(
    receiver: NDProtocol,
    turnaround: int = 0,
    max_segments: int = _DEFAULT_MAX_SEGMENTS,
) -> "ListeningCache":
    """The process-wide cache for ``receiver``, building it on first use.

    Repeated sweeps over the same protocol zoo hit the registry instead
    of re-deriving two hyperperiods of segments per call; see the module
    docstring for the invalidation contract.
    """
    fingerprint = protocol_fingerprint(receiver, turnaround, max_segments)
    with _REGISTRY_LOCK:
        cache = _REGISTRY.pop(fingerprint, None)
        if cache is not None:
            _STATS["hits"] += 1
            _REGISTRY[fingerprint] = cache  # re-insert: LRU recency order
            return cache
        _STATS["misses"] += 1
    # Build outside the lock so other threads' lookups never wait on
    # it; a losing racer merely registers an equivalent pattern over
    # the winner's.
    cache = ListeningCache(receiver, turnaround, max_segments)
    with _REGISTRY_LOCK:
        _REGISTRY.pop(fingerprint, None)
        _REGISTRY[fingerprint] = cache
        while len(_REGISTRY) > _REGISTRY_CAP:
            _REGISTRY.pop(next(iter(_REGISTRY)))
            _STATS["evictions"] += 1
    return cache


def invalidate_listening_caches(fingerprint: str | None = None) -> int:
    """Drop one fingerprint (or all of them) from the registry.

    Returns the number of entries removed.  Needed only to reclaim
    memory or force cold rebuilds -- protocols are immutable, so stale
    entries cannot exist (module docstring has the full contract).
    """
    with _REGISTRY_LOCK:
        if fingerprint is None:
            removed = len(_REGISTRY)
            _REGISTRY.clear()
        else:
            removed = 1 if _REGISTRY.pop(fingerprint, None) is not None else 0
        _STATS["invalidations"] += removed
        return removed


def listening_cache_stats() -> dict:
    """Registry counters (hits/misses/evictions/invalidations) + size."""
    with _REGISTRY_LOCK:
        return dict(_STATS, size=len(_REGISTRY))


class ListeningCache:
    """Precomputed periodic listening pattern for one receiver protocol.

    Answers the same question as
    :func:`repro.simulation.analytic.packet_heard` -- "is a packet
    occupying ``[start, end)`` decoded by ``receiver`` at phase
    ``rx_phase``?" -- in ``O(log segments)`` where the pattern is
    translation-invariant, falling back to the exact per-query
    computation everywhere else.
    """

    def __init__(
        self,
        receiver: NDProtocol,
        turnaround: int = 0,
        max_segments: int = _DEFAULT_MAX_SEGMENTS,
    ) -> None:
        self.receiver = receiver
        self.turnaround = turnaround
        self.hyper = 1
        self.threshold = 0
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._memo_point: dict[int, bool] = {}
        self._memo_span: dict[tuple, bool] = {}
        self._np_pattern = None
        self._np_boot = None
        self.enabled = self._analyze(max_segments)
        if self.enabled:
            base = -(-self.threshold // self.hyper) * self.hyper
            segments = listening_segments(
                receiver, 0, base, base + 2 * self.hyper, turnaround
            )
            self._starts = [a - base for a, _ in segments]
            self._ends = [b - base for _, b in segments]
        self._use_memo = len(self._starts) >= _MEMO_MIN_SEGMENTS

    def _analyze(self, max_segments: int) -> bool:
        """Integer-grid + size preconditions for the precomputed path."""
        reception = self.receiver.reception
        if reception is None or not isinstance(reception.period, int):
            return False
        if not all(
            _all_int(w.start, w.duration) for w in reception.windows
        ):
            return False
        threshold = 0
        n_segments = 0
        beacons = self.receiver.beacons
        if beacons is not None:
            if not isinstance(beacons.period, int) or not all(
                _all_int(b.time, b.duration) for b in beacons.beacons
            ):
                return False
            # Blocks of beacons scheduled before time 0 (which never went
            # on air) end strictly before max-duration + guard; at or
            # past that instant the listening set equals its
            # doubly-infinite periodic extension.
            threshold = (
                max(int(b.duration) for b in beacons.beacons)
                + self.turnaround
            )
        hyper = self.receiver.hyperperiod()
        if beacons is not None:
            n_segments += hyper // int(beacons.period) * beacons.n_beacons
        n_segments += hyper // int(reception.period) * reception.n_windows
        if 2 * n_segments > max_segments:
            return False
        self.hyper = hyper
        self.threshold = threshold
        return True

    def packet_heard(
        self, rx_phase: int, start: int, end: int, model: ReceptionModel
    ) -> bool:
        """Decode decision, bit-identical to the uncached computation.

        Past the boot threshold the decision is a pure function of the
        phase residue ``(start - rx_phase) mod H`` (plus duration and
        model), so each distinct residue is resolved against the pattern
        once and memoized -- sweeps revisit the same residues constantly
        (beacon grids and offset grids are both periodic), and a dict
        hit is several times cheaper than even the binary search.  The
        memo is capped so adversarial hyperperiods degrade to plain
        bisect instead of unbounded memory.
        """
        duration = end - start
        if (
            not self.enabled
            or start < self.threshold
            or duration > self.hyper
            or type(start) is not int
            or type(end) is not int
            or type(rx_phase) is not int
        ):
            return packet_heard(
                self.receiver, rx_phase, start, end, model, self.turnaround
            )
        lo = (start - rx_phase) % self.hyper
        use_memo = self._use_memo
        if model is ReceptionModel.POINT:
            # POINT ignores the packet length: key on the residue alone.
            if use_memo:
                memo = self._memo_point
                cached = memo.get(lo)
                if cached is None:
                    i = bisect_right(self._starts, lo) - 1
                    cached = i >= 0 and self._ends[i] > lo
                    if len(memo) < _MEMO_CAP:
                        memo[lo] = cached
                return cached
            i = bisect_right(self._starts, lo) - 1
            return i >= 0 and self._ends[i] > lo
        if use_memo:
            key = (lo, duration, model is ReceptionModel.ANY_OVERLAP)
            memo = self._memo_span
            cached = memo.get(key)
            if cached is not None:
                return cached
        hi = lo + duration
        starts, ends = self._starts, self._ends
        i = bisect_right(starts, lo) - 1
        covers_lo = i >= 0 and ends[i] > lo
        if model is ReceptionModel.ANY_OVERLAP:
            result = covers_lo or (
                i + 1 < len(starts) and starts[i + 1] < hi
            )
        else:
            # CONTAINMENT: one pattern segment spans the whole packet
            # (two abutting segments do not count, matching the exact
            # equality test in ``packet_heard``).
            result = i >= 0 and ends[i] >= hi
        if use_memo and len(memo) < _MEMO_CAP:
            memo[key] = result
        return result

    @property
    def pattern_segments(self) -> int:
        """Number of precomputed segments (0 when disabled)."""
        return len(self._starts)

    def pattern_arrays(self):
        """The pattern as ``(starts, ends)`` int64 NumPy arrays.

        The one sanctioned path the array-consuming ``numpy`` kernel
        resolves patterns through -- built once per cache object, on
        first use, and owned by the cache so its lifetime *is* the
        invalidation contract: caches are immutable after construction
        (fingerprint-keyed, see the module docstring), so the arrays can
        never go stale while the cache lives, and dropping the cache
        (registry LRU eviction, :func:`invalidate_listening_caches`)
        drops them with it.

        Requires NumPy; raises ``BackendUnavailable`` without it (only
        vectorizing kernels, which already guard on NumPy, call this).
        """
        arrays = self._np_pattern
        if arrays is None:
            np = _numpy("pattern_arrays()")
            arrays = (
                np.array(self._starts, dtype=np.int64),
                np.array(self._ends, dtype=np.int64),
            )
            self._np_pattern = arrays
        return arrays

    def boot_ends(self, rx_phases):
        """Per lane, the instant from which the exact listening set
        equals the periodic pattern (int64 array shaped like
        ``rx_phases``).

        Only blocks of the receiver's own beacons scheduled before time
        0 separate the two, and each ends by its beacon's start plus
        :attr:`threshold`.  The latest such start is one
        ``searchsorted`` over the sorted beacon times: with
        ``q = (-rx_phase) % period`` it is the largest time below ``q``,
        minus ``q`` (or the last time minus ``q + period`` when none is
        below ``q``).  A query starting before its lane's boot end needs
        the exact :meth:`packet_heard` only when the pattern says "not
        heard" (module docstring).  Requires NumPy, like
        :meth:`pattern_arrays`.
        """
        np = _numpy("boot_ends()")
        rx_phases = np.asarray(rx_phases, dtype=np.int64)
        beacons = self.receiver.beacons
        if beacons is None:
            return np.zeros(rx_phases.shape, dtype=np.int64)
        boot = self._np_boot
        if boot is None:
            # A schedule's beacon times are sorted and inside
            # [0, period).
            period = int(beacons.period)
            times = np.array(
                [int(b.time) for b in beacons.beacons], dtype=np.int64
            )
            # previous[i]: the latest beacon time below the i-th one,
            # wrapping to the previous period for i = 0.
            previous = np.concatenate(([times[-1] - period], times))
            boot = self._np_boot = (period, times, previous)
        period, times, previous = boot
        q = (-rx_phases) % period
        latest = previous[np.searchsorted(times, q, side="left")] - q
        return latest + self.threshold
