"""NumPy-vectorized sweep kernel: coverage painting.

The reference, :func:`repro.simulation.analytic.first_discovery`, tries
beacon candidates ``c = instance * period + tau`` (instances from -1,
taus in order) one at a time; a lane -- one (tx phase, rx phase) pair
-- queries ``c`` at ``t = c + red`` (``red``: the tx phase mod the
period), and its first heard query with ``0 <= t < horizon`` wins.
This kernel gets the same answer from coverage, as the paper does
(Section 4.1, the ``Omega_i`` of Eq. 3): a lane's result is its
earliest candidate whose coverage holds it.

* **Key and heard sets.**  Past boot the listening set is the periodic
  pattern shifted by the rx phase (:mod:`repro.parallel.cache`), so
  ``c`` reaches a lane iff its *key* ``(red - rx_phase) mod H`` lies in
  ``(S_d - c) mod H``.  The heard set ``S_d``
  (:meth:`~repro.parallel.cache.ListeningCache.heard_intervals`) holds
  the residues decoding a packet of duration ``d``: per segment
  ``[s, e)``, POINT ``[s, e)``, ANY_OVERLAP ``[s - d + 1, e)``,
  CONTAINMENT ``[s, e - d + 1)``, clipped to ``[0, H)``.
* **Painting.**  Lanes are sorted by key once.  In a block of
  candidates each shifted interval is one run of sorted keys (two
  ``searchsorted`` calls); runs expand into (lane, candidate) pairs,
  pairs with ``t`` outside ``[0, horizon)`` drop, and ``np.minimum.at``
  keeps each lane's earliest candidate; covered lanes then leave.
  Blocks double from :data:`_FIRST_BLOCK` candidates up to
  :data:`_BLOCK_PAIRS`; scratch holds that many pairs, or one
  candidate's at most.
* **Retirement bound.**  From the *steady instance* -- the first whose
  every query lies at or past ``max(boot_max, 0)``, ``boot_max`` being
  the batch's latest boot end -- decodes are the pattern's, and a
  lane's residues repeat every ``cycle = H // gcd(period, H)``
  instances.  So candidates end ``cycle`` instances after it, or at
  the first instance starting at or past the horizon for every lane; a
  lane uncovered by then stays ``-1``.
* **Boot pairs.**  Before a lane's boot end
  (:meth:`~repro.parallel.cache.ListeningCache.boot_ends`) a pattern
  "heard" is exact but a "not heard" may not be.  The first block holds
  every candidate queried before some boot end; each such pair before
  the lane's pattern hit goes, in candidate order, to the exact scalar
  :func:`repro.simulation.analytic.packet_heard`.
* **Delegation.**  A disabled pattern cache, non-integer schedules or
  offsets, non-integer or oversized horizons, or a beacon longer than
  ``H`` send the batch to the ``python`` backend, the reference.

The two first-discovery vectors are the kernel's one answer: reduced
straight into a :class:`SweepReport` (:func:`summarize_discovery_vectors`)
or read lazily (:class:`DiscoveryVectors`).  The equivalence zoo and
the property tests pin it to the reference under all three models.
"""

from __future__ import annotations

import math
from collections import abc
from typing import Sequence

from ..core.sequences import NDProtocol
from ..parallel.cache import get_listening_cache, ListeningCache
from ..simulation.analytic import (
    DiscoveryOutcome,
    packet_heard,
    ReceptionModel,
    summarize_outcomes,
    SweepReport,
)
from . import _np
from .base import (
    BackendUnavailable,
    CriticalSetTooLarge,
    get_backend,
    SweepBackend,
    SweepParams,
)

__all__ = [
    "DiscoveryVectors",
    "NumpyBackend",
    "summarize_discovery_vectors",
]

# int64 headroom: offsets/horizons beyond this could overflow the
# residue arithmetic (t - rx_phase spans twice the magnitude), so such
# batches take the arbitrary-precision python path instead.
_INT_BOUND = 1 << 60
_INT64_MAX = (1 << 63) - 1

# Critical-offset enumeration uses an O(hyperperiod) boolean scatter
# mask for dedup (no sort at all) up to this hyperperiod -- 64 MB of
# transient bool scratch at the limit.  Larger hyperperiods fall back
# to sort-based dedup, which costs O(B*W log B*W) but no per-microsecond
# memory.
_BITMAP_MAX_HYPER = 1 << 26

# Painting scratch bounds (module docstring).
_FIRST_BLOCK = 16
_BLOCK_PAIRS = 1 << 17


def _direction_vectorizable(
    transmitter: NDProtocol, receiver: NDProtocol, rx_cache: ListeningCache
) -> bool:
    """Can this direction run through the int64 kernel?

    Trivial directions (no beacons / no reception) vectorize vacuously;
    otherwise the receiver's pattern must be precomputed (an integer
    grid) and the transmitter's schedule integer, with no beacon longer
    than the pattern's hyperperiod.
    """
    if transmitter.beacons is None or receiver.reception is None:
        return True
    if not rx_cache.enabled:
        return False
    schedule = transmitter.beacons
    if type(schedule.period) is not int or schedule.period >= _INT_BOUND:
        return False
    return all(
        type(b.time) is int
        and type(b.duration) is int
        and b.duration <= rx_cache.hyper
        for b in schedule.beacons
    )


def _reduce_latencies(values, offsets: list[int]):
    """``(worst, worst_offset, mean, count)`` over the non-negative
    entries of ``values``, as :func:`summarize_outcomes` folds them."""
    found = values[values >= 0]
    count = int(found.size)
    if not count:
        return None, None, None, 0
    # argmax returns the first maximum: the earliest-tie rule.
    k = int(_np.np.argmax(values))
    worst = int(values[k])
    if worst * count <= _INT64_MAX:
        total = int(found.sum())
    else:
        total = sum(found.tolist())  # the int64 sum could overflow
    return worst, offsets[k], total / count, count


def summarize_discovery_vectors(
    offsets: list[int], e_by_f, f_by_e
) -> SweepReport:
    """:func:`summarize_outcomes` over the outcomes two first-discovery
    vectors describe, without building them.

    ``e_by_f``/``f_by_e`` are int64 vectors aligned with ``offsets``
    (``-1``: not discovered), or ``None`` for a direction that cannot
    discover at all.  Equal field for field to the reference fold:
    worst-case ties go to the earliest offset, and means divide exact
    Python-int sums by their counts.
    """
    np = _np.np
    n = len(offsets)
    if not n:
        return summarize_outcomes(())
    missing = np.full(n, -1, dtype=np.int64)
    e = missing if e_by_f is None else e_by_f
    f = missing if f_by_e is None else f_by_e
    both = (e >= 0) & (f >= 0)
    # With one direction at -1, the max is the other one (or -1).
    one_way = np.where(both, np.minimum(e, f), np.maximum(e, f))
    two_way = np.where(both, np.maximum(e, f), -1)
    worst_ow, offset_ow, mean_ow, count_ow = _reduce_latencies(
        one_way, offsets
    )
    worst_tw, offset_tw, mean_tw, _ = _reduce_latencies(two_way, offsets)
    return SweepReport(
        offsets_evaluated=n,
        failures=n - count_ow,
        worst_one_way=worst_ow,
        worst_two_way=worst_tw,
        mean_one_way=mean_ow,
        mean_two_way=mean_tw,
        worst_offset_one_way=offset_ow,
        worst_offset_two_way=offset_tw,
    )


def _discovery_time(vector, index: int) -> int | None:
    """One first-discovery time of a vector (``None``: not discovered,
    or a direction that cannot discover)."""
    if vector is None:
        return None
    time = int(vector[index])
    return time if time >= 0 else None


class DiscoveryVectors(abc.Sequence):
    """The per-offset outcomes two first-discovery vectors hold, as a
    sequence aligned with ``offsets`` (vectors as
    :func:`summarize_discovery_vectors` takes them).

    Reading one index builds one :class:`DiscoveryOutcome`, so a caller
    that looks up a few offsets of a large batch pays for those alone;
    iterating converts each vector once.
    """

    def __init__(self, offsets: list[int], e_by_f, f_by_e) -> None:
        self.offsets = offsets
        self.e_by_f = e_by_f
        self.f_by_e = f_by_e

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, index: int) -> DiscoveryOutcome:
        return DiscoveryOutcome(
            offset=self.offsets[index],
            e_discovered_by_f=_discovery_time(self.e_by_f, index),
            f_discovered_by_e=_discovery_time(self.f_by_e, index),
        )

    def __iter__(self):
        missing = [-1] * len(self.offsets)
        e_by_f, f_by_e = (
            missing if vec is None else vec.tolist()
            for vec in (self.e_by_f, self.f_by_e)
        )
        for offset, a, b in zip(self.offsets, e_by_f, f_by_e):
            yield DiscoveryOutcome(
                offset=offset,
                e_discovered_by_f=a if a >= 0 else None,
                f_discovered_by_e=b if b >= 0 else None,
            )


class NumpyBackend(SweepBackend):
    """The vectorized kernel behind ``backend="numpy"``."""

    name = "numpy"

    def __init__(self) -> None:
        if _np.np is None:
            raise BackendUnavailable(
                "NumPy is not importable; install the [fast] extra or "
                "select backend='python'"
            )

    @classmethod
    def available(cls) -> bool:
        return _np.np is not None

    def evaluate_offsets_batch(
        self, params: SweepParams, offsets: Sequence[int]
    ) -> list[DiscoveryOutcome]:
        offsets = list(offsets)
        if not offsets:
            return []
        vectors = self._discovery_vectors(params, offsets)
        if vectors is None:
            return get_backend("python").evaluate_offsets_batch(
                params, offsets
            )
        return list(DiscoveryVectors(offsets, *vectors))

    def sweep_outcomes_batch(
        self, params: SweepParams, offsets: Sequence[int]
    ) -> tuple[SweepReport, Sequence[DiscoveryOutcome]]:
        """The batch's :class:`SweepReport`, reduced straight from the
        two first-discovery vectors, and the outcomes they hold
        (:class:`DiscoveryVectors`: one is built only when read)."""
        offsets = list(offsets)
        vectors = self._discovery_vectors(params, offsets) if offsets else None
        if vectors is None:
            return get_backend("python").sweep_outcomes_batch(params, offsets)
        return (
            summarize_discovery_vectors(offsets, *vectors),
            DiscoveryVectors(offsets, *vectors),
        )

    def _discovery_vectors(self, params: SweepParams, offsets: list[int]):
        """``(e_by_f, f_by_e)``: per-offset first-discovery times as
        int64 vectors (``-1``: none; ``None`` for a direction without
        beacons or reception), or ``None`` when the batch misses the
        vectorization preconditions."""
        np = _np.np
        if np is None:
            raise BackendUnavailable("NumPy disappeared after registration")
        protocol_e, protocol_f = params.protocol_e, params.protocol_f
        cache_e = get_listening_cache(protocol_e, params.turnaround)
        cache_f = get_listening_cache(protocol_f, params.turnaround)
        # One C-level pass for the offsets' types, then their bounds:
        # bools, numpy ints and floats all fail the type test.
        vectorizable = (
            type(params.horizon) is int
            and params.horizon < _INT_BOUND
            and set(map(type, offsets)) <= {int}
            and -_INT_BOUND < min(offsets, default=0)
            and max(offsets, default=0) < _INT_BOUND
            and _direction_vectorizable(protocol_e, protocol_f, cache_f)
            and _direction_vectorizable(protocol_f, protocol_e, cache_e)
        )
        if not vectorizable:
            return None
        offset_vec = np.asarray(offsets, dtype=np.int64)
        zero_vec = np.zeros(len(offsets), dtype=np.int64)
        vectors = []
        # E at phase 0 heard by F at the offset, then the reverse.
        for transmitter, receiver, cache, tx_phases, rx_phases in (
            (protocol_e, protocol_f, cache_f, zero_vec, offset_vec),
            (protocol_f, protocol_e, cache_e, offset_vec, zero_vec),
        ):
            vec = None
            if (
                transmitter.beacons is not None
                and receiver.reception is not None
            ):
                vec = self._first_discovery_batch(
                    transmitter, cache, tx_phases, rx_phases,
                    params.horizon, params.model,
                )
            vectors.append(vec)
        return tuple(vectors)

    def enumerate_critical_offsets(
        self,
        params: SweepParams,
        omega: int | None = None,
        max_count: int = 200_000,
    ) -> list[int]:
        """Vectorized critical-offset enumeration, bit-identical to the
        pure-python reference.

        The boundary lists come from the exact reference code
        (:func:`repro.backends.python_loop.direction_breakpoint_inputs`),
        so every input instant is the identical integer; only the
        quadratic ``beacon_times x window_bounds`` part is batched, one
        broadcast subtraction mod the hyperperiod per direction plus the
        ``+-1`` neighbours.  Dedup is a boolean scatter mask over the
        hyperperiod where that fits in memory and ``np.unique`` beyond
        it.  The ``max_count`` guards fire at the same points with the
        same messages as the reference, and hyperperiods at or beyond
        the int64 headroom delegate to it wholesale.
        """
        np = _np.np
        if np is None:  # pragma: no cover - registration guards this
            raise BackendUnavailable("NumPy disappeared after registration")
        from .python_loop import (
            direction_breakpoint_inputs,
            enumerate_critical_offsets_reference,
        )

        protocol_e, protocol_f = params.protocol_e, params.protocol_f
        turnaround = params.turnaround
        hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
        if hyper >= _INT_BOUND or (
            omega is not None and abs(omega) >= _INT_BOUND
        ):
            return enumerate_critical_offsets_reference(
                protocol_e, protocol_f, omega, max_count, turnaround
            )

        mask = None
        merged = None
        # Direction signs as in the reference: E->F breakpoints at
        # offset = tau - bound (sign -1), F->E at bound - tau (+1).
        for tx, rx_protocol, sign in (
            (protocol_e.beacons, protocol_f, -1),
            (protocol_f.beacons, protocol_e, +1),
        ):
            if tx is None or rx_protocol.reception is None:
                continue
            beacon_times, window_bounds = direction_breakpoint_inputs(
                tx, rx_protocol, hyper, omega, turnaround
            )
            if len(beacon_times) * len(window_bounds) > max_count * 4:
                raise CriticalSetTooLarge(
                    f"critical set too large "
                    f"({len(beacon_times)} beacons x "
                    f"{len(window_bounds)} bounds); "
                    f"use a uniform sweep"
                )
            taus = np.asarray(beacon_times, dtype=np.int64)
            bounds = np.asarray(window_bounds, dtype=np.int64)
            base = (sign * np.subtract.outer(bounds, taus)) % hyper
            base = base.ravel()
            if hyper <= _BITMAP_MAX_HYPER:
                if mask is None:
                    mask = np.zeros(hyper, dtype=bool)
                mask[base] = True
                mask[(base - 1) % hyper] = True
                mask[(base + 1) % hyper] = True
                count = int(np.count_nonzero(mask))
            else:
                # Dedup the base offsets *before* neighbour generation:
                # the second sort then runs over ~3 unique values per
                # breakpoint instead of 3 per (beacon, bound) cell.
                unique = np.unique(base)
                unique = np.unique(
                    np.concatenate(
                        (unique, (unique - 1) % hyper, (unique + 1) % hyper)
                    )
                )
                merged = (
                    unique if merged is None else np.union1d(merged, unique)
                )
                count = int(merged.size)
            if count > max_count:
                raise CriticalSetTooLarge(
                    f"critical set exceeded {max_count} offsets; "
                    f"use a uniform sweep"
                )
        if mask is not None:
            return np.flatnonzero(mask).tolist()
        if merged is None:
            return []
        return merged.tolist()

    def _first_discovery_batch(
        self,
        transmitter: NDProtocol,
        cache: ListeningCache,
        tx_phases,
        rx_phases,
        horizon: int,
        model: ReceptionModel,
    ):
        """First-discovery times for every phase pair (``-1``: none),
        painted block by block (module docstring)."""
        np = _np.np
        schedule = transmitter.beacons
        period, hyper = schedule.period, cache.hyper
        taus = np.array([b.time for b in schedule.beacons], dtype=np.int64)
        durations = [b.duration for b in schedule.beacons]
        n_beacons = len(durations)
        # One heard set per distinct duration.
        lengths = sorted(set(durations))
        heard_sets = [cache.heard_intervals(model, d) for d in lengths]
        set_of_beacon = np.searchsorted(lengths, durations)

        result = np.full(tx_phases.size, -1, dtype=np.int64)
        red = tx_phases % period
        boot_end = cache.boot_ends(rx_phases)
        red_min, red_max = int(red.min()), int(red.max())
        boot_max = int(boot_end.max())
        # Candidate j is beacon j % n_beacons of instance
        # j // n_beacons - 1; they end at the retirement bound.
        steady = max(-1, -((red_min + taus[0] - max(boot_max, 0)) // period))
        stop = min(
            steady + hyper // math.gcd(period, hyper),
            -((red_min - horizon) // period),
        )
        n_candidates = (int(stop) + 1) * n_beacons
        # Boot candidates: ``c < boot_max - red_min``, from instance -1.
        reach = max(boot_max - red_min + period, 0)
        n_boot = min(n_candidates, reach // period * n_beacons
                     + int(taus.searchsorted(reach % period)))

        keys = (red - rx_phases) % hyper
        lanes = np.argsort(keys, kind="stable")
        keys, red = keys[lanes], red[lanes]
        block = max(n_boot, _FIRST_BLOCK)
        j = 0
        while lanes.size and j < n_candidates:
            index = np.arange(j, min(n_candidates, j + block), dtype=np.int64)
            cands = (index // n_beacons - 1) * period + taus[index % n_beacons]
            # Only a block reaching below time 0 or up to the horizon
            # tests each pair's ``0 <= t < horizon``.
            window = None
            if cands[0] + red_min < 0 or cands[-1] + red_max >= horizon:
                window = horizon
            best = np.full(lanes.size, _INT64_MAX, dtype=np.int64)
            group = set_of_beacon[index % n_beacons]
            for g, (lo, length) in enumerate(heard_sets):
                mine = cands[group == g] if len(heard_sets) > 1 else cands
                _paint(best, keys, red, mine, lo, length, hyper, window)
            if j == 0 and n_boot:  # the first block holds them all
                _boot_checks(
                    best, cands[:n_boot], durations, red, rx_phases[lanes],
                    boot_end[lanes], horizon, cache, model,
                )
            hit = best < _INT64_MAX
            result[lanes[hit]] = best[hit] + red[hit]
            miss = ~hit
            lanes, keys, red = lanes[miss], keys[miss], red[miss]
            j += index.size
            block = min(2 * block, max(block, _BLOCK_PAIRS))
        return result


def _paint(best, keys, red, cands, lo, length, hyper: int, horizon):
    """Lower ``best[i]`` to the earliest of ``cands`` whose heard set
    ``(lo, length)`` covers lane ``i``'s key (``keys`` sorted).

    Each shifted interval ``(lo - c) mod hyper`` is one run of the
    sorted keys doubled by ``+ hyper``.  Candidates go a chunk at a
    time, so that neither the shifted intervals nor the pairs the runs
    expand into (at most one per lane and candidate) pass
    :data:`_BLOCK_PAIRS`.  With ``horizon`` set, pairs with ``c + red``
    outside ``[0, horizon)`` drop.
    """
    np = _np.np
    n = best.size
    keys2 = np.concatenate((keys, keys + hyper))
    step = max(1, _BLOCK_PAIRS // max(n, lo.size))
    for at in range(0, cands.size if lo.size else 0, step):
        part = cands[at:at + step, None]
        shifted = (lo - part) % hyper
        first = keys2.searchsorted(shifted).ravel()
        count = keys2.searchsorted(shifted + length).ravel() - first
        ranges = np.flatnonzero(count)
        pos = _run_positions(first[ranges], count[ranges])
        pos[pos >= n] -= n
        c = np.repeat(part[ranges // lo.size, 0], count[ranges])
        if horizon is not None:
            ok = (c + red[pos] >= 0) & (c + red[pos] < horizon)
            pos, c = pos[ok], c[ok]
        np.minimum.at(best, pos, c)


def _boot_checks(
    best, cands, durations, red, rxp, boot_end, horizon, cache, model
):
    """The exact decode of each boot candidate, in candidate order, for
    every lane that queries it before its boot end, the horizon and its
    earliest hit so far: only there may the pattern's "not heard" be
    wrong (module docstring).  ``cands`` start at instance -1, so the
    ``k``-th has duration ``durations[k % len(durations)]``."""
    np = _np.np
    # Lane i queries the candidates in [-red, min(boot_end, horizon) - red).
    first = cands.searchsorted(-red)
    last = cands.searchsorted(np.minimum(boot_end, horizon) - red)
    count = np.maximum(last - first, 0)
    lanes = np.repeat(np.arange(red.size), count)
    ks = _run_positions(first, count)
    need = cands[ks] < best[lanes]
    lanes, ks = lanes[need], ks[need]
    for k, i, start, phase in zip(
        ks.tolist(), lanes.tolist(), (cands[ks] + red[lanes]).tolist(),
        rxp[lanes].tolist(),
    ):
        # A lane's pairs come in candidate order, so after its first
        # exact hit the rest fail the test.
        if cands[k] < best[i] and packet_heard(
            cache.receiver, phase, start,
            start + durations[k % len(durations)], model, cache.turnaround,
        ):
            best[i] = cands[k]


def _run_positions(first, count):
    """``first[r], ..., first[r] + count[r] - 1`` for every run ``r``."""
    np = _np.np
    done = np.cumsum(count)
    positions = np.repeat(first - (done - count), count)
    positions += np.arange(positions.size)
    return positions
