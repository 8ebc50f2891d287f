"""Precomputed listening patterns for the vectorized sweep kernel.

Deciding whether a receiver decodes a packet needs its effective
listening set: its reception windows minus its own transmissions (plus
turnaround guards).  Away from time zero that set is *periodic* with
the receiver's hyperperiod ``H = lcm(T_C, T_B)`` and shifts rigidly
with the phase, so a decode depends only on the residue
``(packet_start - rx_phase) mod H``, the packet length and the
reception model.  Only near time zero does this break: beacons
scheduled before boot never went on air.

:class:`ListeningCache` precomputes the pattern once: two hyperperiods
of exact listening segments, so any packet of length up to ``H`` falls
inside it.  Segments are stored as
:func:`repro.simulation.analytic.listening_segments` returns them --
abutting windows kept distinct -- because CONTAINMENT tells one
spanning segment from two abutting ones.  The ``numpy`` kernel reads
the pattern as *heard sets* (:meth:`ListeningCache.heard_intervals`:
the residues at which a packet of one duration is decoded) and paints
each beacon candidate's coverage from them.  The cache is enabled only
on integer schedules whose pattern fits ``max_segments``; a disabled
cache sends the whole batch to the ``python`` reference, which reads
no pattern.

Near boot, the exact listening set differs from the pattern only by
the blocks of the receiver's own pre-zero beacons, each ending by its
beacon's start plus :attr:`ListeningCache.threshold`.  So from a lane's
*boot end* (:meth:`ListeningCache.boot_ends`) on, the pattern is exact.
Before it, removing blocks only adds listening time, so a pattern
"heard" is exact too, in all three reception models; only a pattern
"not heard" before the boot end needs the exact
:func:`repro.simulation.analytic.packet_heard`.

Process-wide keyed registry
---------------------------

:func:`get_listening_cache` memoizes caches process-wide, keyed by
:func:`protocol_fingerprint` -- a SHA-256 digest of the *schedule
contents* (beacon times/durations/period, window starts/durations/
period, the turnaround guard and the pattern size limit):

* **Keys cannot go stale.**  :class:`repro.core.sequences.NDProtocol`
  and both schedule classes are immutable, so a fingerprint
  permanently identifies the listening behaviour it was computed from;
  equal schedules share one cache.  The same immutability lets a
  small memo keep each receiver object's key, so a lookup re-hashes no
  schedule the memo still holds.
* **Explicit invalidation exists for memory, not correctness.**
  :func:`invalidate_listening_caches` drops one fingerprint or the
  whole registry (to reclaim memory, or force a cold rebuild in
  benchmarks).  The registry also self-bounds by LRU eviction past
  ``_REGISTRY_CAP`` entries.
"""

from __future__ import annotations

import hashlib
import threading

from ..core.sequences import NDProtocol
from ..simulation.analytic import listening_segments, ReceptionModel

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
# Heard sets a cache memoizes; threads that race on one recompute it.
_HEARD_CAP = 16
_REGISTRY: dict[str, "ListeningCache"] = {}
# LRU bound on registered caches.
_REGISTRY_CAP = 64
_STATS = {"hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}
# Registry keys per receiver object and (turnaround, max_segments):
# protocols are immutable, so a receiver's fingerprint is hashed once
# while it stays here.  Each entry holds its receiver, so the id() it is
# keyed by cannot be reused while the entry lives; the memo empties
# when full.
_KEY_MEMO: dict[tuple, tuple[NDProtocol, str]] = {}
_KEY_MEMO_CAP = 64
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


def _registry_key(
    receiver: NDProtocol, turnaround: int, max_segments: int
) -> str:
    """:func:`protocol_fingerprint` of ``receiver``, through the key memo."""
    memo_key = (id(receiver), turnaround, max_segments)
    entry = _KEY_MEMO.get(memo_key)
    if entry is not None and entry[0] is receiver:
        return entry[1]
    fingerprint = protocol_fingerprint(receiver, turnaround, max_segments)
    with _REGISTRY_LOCK:
        if len(_KEY_MEMO) >= _KEY_MEMO_CAP:
            _KEY_MEMO.clear()
        _KEY_MEMO[memo_key] = (receiver, fingerprint)
    return fingerprint


def get_listening_cache(
    receiver: NDProtocol,
    turnaround: int = 0,
    max_segments: int = _DEFAULT_MAX_SEGMENTS,
) -> "ListeningCache":
    """The process-wide cache for ``receiver``, building it on first use.

    Repeated sweeps over the same protocol zoo hit the registry instead
    of re-deriving two hyperperiods of segments per call; see the module
    docstring for the invalidation contract.  Repeated lookups of one
    receiver object hash its schedules once.
    """
    fingerprint = _registry_key(receiver, turnaround, max_segments)
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

    A packet occupying ``[start, end)``, starting at or past
    :attr:`threshold` and no longer than :attr:`hyper`, is decoded at
    phase ``rx_phase`` exactly when the pattern, read at the residue
    ``(start - rx_phase) mod hyper``, says so.  :attr:`enabled` is false
    where no pattern is built (non-integer schedules, patterns over
    ``max_segments``).
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
        self._np_pattern = None
        self._np_boot = None
        self._np_heard: dict = {}
        self.enabled = self._analyze(max_segments)
        if self.enabled:
            base = -(-self.threshold // self.hyper) * self.hyper
            segments = listening_segments(
                receiver, 0, base, base + 2 * self.hyper, turnaround
            )
            self._starts = [a - base for a, _ in segments]
            self._ends = [b - base for _, b in segments]

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

    @property
    def pattern_segments(self) -> int:
        """Number of precomputed segments (0 when disabled)."""
        return len(self._starts)

    def pattern_arrays(self):
        """The pattern as ``(starts, ends)`` int64 NumPy arrays.

        Built once, on first use, and owned by the cache: caches are
        immutable, so the arrays never go stale while it lives, and
        dropping it drops them.  Requires NumPy; raises
        ``BackendUnavailable`` without it.
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

    def heard_intervals(self, model: ReceptionModel, duration: int):
        """The residues in ``[0, hyper)`` at which the pattern decodes a
        packet of ``duration`` (no longer than :attr:`hyper`), as
        sorted, disjoint intervals: int64 arrays ``(lo, length)``.

        A segment ``[s, e)`` hears POINT at ``[s, e)``, ANY_OVERLAP at
        ``[s - duration + 1, e)`` and CONTAINMENT at ``[s, e -
        duration + 1)``; pieces merge.  Memoized per model and
        duration, like :meth:`pattern_arrays`.
        """
        if model is ReceptionModel.POINT:
            duration = 1  # POINT reads the start instant alone
        if (heard := self._np_heard.get((model, duration))) is not None:
            return heard
        np = _numpy("heard_intervals()")
        starts, ends = self.pattern_arrays()
        if model is ReceptionModel.ANY_OVERLAP:
            starts = starts - (duration - 1)
        elif model is ReceptionModel.CONTAINMENT:
            ends = ends - (duration - 1)
        lo = np.clip(starts, 0, self.hyper)
        hi = np.clip(ends, 0, self.hyper)
        keep = lo < hi
        lo, hi = lo[keep], hi[keep]
        if lo.size:
            # Both columns are sorted, as the segments are, so a piece
            # starts a new interval exactly when it begins past the end
            # of the one before it.
            fresh = np.flatnonzero(lo[1:] > hi[:-1]) + 1
            lo, hi = lo[np.insert(fresh, 0, 0)], hi[np.append(fresh - 1, -1)]
        heard = lo, hi - lo
        if len(self._np_heard) >= _HEARD_CAP:
            self._np_heard.clear()
        self._np_heard[model, duration] = heard
        return heard

    def boot_ends(self, rx_phases):
        """Per lane, the instant from which the exact listening set
        equals the periodic pattern (int64 array shaped like
        ``rx_phases``).

        Only blocks of the receiver's own beacons scheduled before time
        0 separate the two, and each ends by its beacon's start plus
        :attr:`threshold`.  With ``q = (-rx_phase) % period``, the latest
        such start is the largest beacon time below ``q``, minus ``q``
        (or the last time minus ``q + period`` when none is below
        ``q``).  Requires NumPy, like :meth:`pattern_arrays`.
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
