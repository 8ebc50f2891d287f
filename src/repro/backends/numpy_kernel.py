"""NumPy-vectorized sweep kernel: batched ``searchsorted`` discovery.

The reference, :func:`repro.simulation.analytic.first_discovery`,
decides one beacon candidate at a time from the receiver's schedules.
This backend runs the *same enumeration* -- beacon instances in
doubly-infinite order, taus in schedule order, first hit wins -- but
decides each candidate from the receiver's precomputed listening
pattern (:class:`repro.parallel.cache.ListeningCache`), batched across
**all still-undiscovered offsets at once**, in one loop:

* **Compacted lanes.**  Per-lane state -- the lane's index, its tx
  phase residue ``red``, the residue constant ``delta = red - rx_phase``,
  its rx phase and its boot end -- lives in one int64 array whose
  columns are dropped as lanes resolve (after every candidate that
  hears one) and as their instances reach the horizon, so each step
  touches only live lanes.
* **One search per candidate.**  Candidate ``c = instance * period +
  tau`` decodes at ``lo = (c + delta) mod H``: one ``np.searchsorted``
  over the int64 pattern arrays answers every live lane.  Sentinel
  slots -- an end of ``-1`` before the first segment, a start of
  ``2H + 1`` past the last -- make each reception model's predicate a
  single gather with no bounds masks.
* **Scalar skips.**  The live lanes' smallest and largest residue bound
  every candidate's query times, so candidates no lane can use are
  skipped, and the ``[0, horizon)`` mask and the boot screen run only
  when some lane needs them.
* **Dead-lane retirement.**  The *steady instance* is the first whose
  candidates all lie at or past ``max(boot_max, 0)`` (``boot_max``: the
  batch's latest boot end).  From it on every decode is the pattern's,
  and a lane's residues ``(c + delta) mod H`` repeat every
  ``cycle = H // gcd(period, H)`` instances, so lanes still unresolved
  ``cycle`` instances after it never resolve: the loop ends there and
  they stay ``-1``.

Bit-identity is by construction, not by approximation:

* candidate order, the ``0 <= t < horizon`` window, and the
  ``base >= horizon`` termination test replicate the reference loop
  exactly, so ties resolve to the identical beacon;
* retirement drops only lanes whose every later candidate repeats a
  pattern decode that already said "not heard", so it changes no
  result, and a lane's result does not depend on the batch it came
  in.  The ``0`` in the steady floor matters: a pool chunk whose boot
  ends are all negative would otherwise count candidates masked off
  by ``t < 0`` as evaluated.  Retirement is this kernel's alone: the
  reference runs every lane to the horizon;
* past the boot threshold the pattern *is* the listening set, shifted
  by the phase, so reading it at the residue decides each reception
  model exactly as the reference's segment test does;
* boot-region candidates are decided by the pattern too, and only the
  lanes :meth:`repro.parallel.cache.ListeningCache.boot_ends` cannot
  clear -- a pattern "not heard" before the lane's boot end, where the
  receiver's pre-zero beacons may have blocked listening time that
  never was blocked -- drop to the exact scalar
  :func:`repro.simulation.analytic.packet_heard` per element, as do
  packets longer than the hyperperiod; whole batches that miss the
  vectorization preconditions (disabled pattern cache, non-integer
  schedules or offsets, non-integer or oversized horizons) delegate to
  the ``python`` backend, the reference, wholesale.

The two first-discovery vectors are the kernel's one answer.
:meth:`NumpyBackend.sweep_outcomes_batch` reduces them straight into
the :class:`SweepReport` (:func:`summarize_discovery_vectors`):
worst-case ties go to the earliest offset via ``argmax``, and means
divide exact Python-int sums (summed in int64 unless that could
overflow).  Its outcomes are the same vectors behind
:class:`DiscoveryVectors`, which builds an outcome only when one is
read; :meth:`NumpyBackend.evaluate_offsets_batch` reads them all.

The equivalence zoo pins this kernel to
:func:`repro.simulation.analytic.evaluate_offsets` across all 13
protocol families and all three reception models, for outcomes and
reports; ``tests/test_sweep_kernel_property.py`` does the same on
random schedules and offset batches.
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


def _direction_vectorizable(
    transmitter: NDProtocol, receiver: NDProtocol, rx_cache: ListeningCache
) -> bool:
    """Can this direction run through the int64 kernel?

    Trivial directions (no beacons / no reception) vectorize vacuously;
    otherwise the receiver's pattern must be precomputed (which already
    guarantees an integer receiver grid) and the transmitter's schedule
    must be integers too, or residues would need float arithmetic the
    reference performs exactly.
    """
    if transmitter.beacons is None or receiver.reception is None:
        return True
    if not rx_cache.enabled:
        return False
    schedule = transmitter.beacons
    if type(schedule.period) is not int or schedule.period >= _INT_BOUND:
        return False
    return all(
        type(b.time) is int and type(b.duration) is int
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

        The reference is a double loop over ``beacon_times x
        window_bounds`` with modular arithmetic per cell.  Here the two
        boundary lists are still built by the exact (linear) reference
        code -- the shared
        :func:`repro.backends.python_loop.direction_breakpoint_inputs`
        (beacon times, deduplicated window bounds, and the turnaround
        guard edges when ``params.turnaround > 0``) -- so
        every input instant is the identical integer, and only the
        quadratic part is batched: one broadcast subtraction of window
        bounds against beacon times mod the hyperperiod per direction,
        with the ``+-1`` one-sided-limit neighbours generated
        vectorized.  Dedup is a boolean scatter mask over the
        hyperperiod where that fits in memory (no sort at all --
        ``np.flatnonzero`` reads the sorted set straight back out) and
        sort-based ``np.unique``/``np.union1d`` beyond it.  The
        ``max_count`` guards fire at the same points with the same
        messages as the reference (pre-enumeration product guard per
        direction, cumulative set guard after each direction), and the
        returned list is the same sorted python ints.  Hyperperiods at
        or beyond the int64 headroom delegate to the reference
        wholesale.
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
        """First-discovery times for every phase pair (``-1``: none).

        One iteration per beacon candidate ``(instance, tau)`` in the
        reference enumeration order, batched over the still-unresolved
        lanes, whose state is kept compacted (module docstring).
        """
        np = _np.np
        schedule = transmitter.beacons
        period = schedule.period
        pattern = [(int(b.time), int(b.duration)) for b in schedule.beacons]
        starts, ends = cache.pattern_arrays()
        hyper = cache.hyper
        point = model is ReceptionModel.POINT
        any_overlap = model is ReceptionModel.ANY_OVERLAP
        receiver, turnaround = cache.receiver, cache.turnaround

        # Sentinel slots make each predicate one gather at the
        # ``searchsorted`` slot ``k`` (segment ``k - 1`` covers the
        # residue, segment ``k`` is the next one): ``ends_ext[0] = -1``
        # answers "before the first segment", ``starts_ext[-1] = 2H+1``
        # (above any residue and any ``lo + duration``) "past the last".
        ends_ext = np.concatenate(([-1], ends))
        starts_ext = np.concatenate((starts, [2 * hyper + 1]))

        result = np.full(tx_phases.size, -1, dtype=np.int64)
        # Per-lane state, one row each, compacted as lanes drop out:
        # original lane, tx phase residue, residue constant, rx phase,
        # boot end.
        reduced = tx_phases % period
        state = np.stack((
            np.arange(tx_phases.size, dtype=np.int64),
            reduced,
            reduced - rx_phases,
            rx_phases,
            cache.boot_ends(rx_phases),
        ))
        lanes, red, delta, rxp, boot_end = state
        boot_max = int(boot_end.max())
        red_min, red_max = int(red.min()), int(red.max())
        # Dead-lane retirement (module docstring): from the steady
        # instance on, a lane's residues repeat every ``cycle``
        # instances.  The floor includes 0 because candidates before
        # time 0 are masked off, not evaluated.
        steady_floor = max(boot_max, 0)
        tau_min = pattern[0][0]  # beacon times are sorted
        cycle = hyper // math.gcd(period, hyper)
        retire_at = None
        instance = -1
        while lanes.size:
            ibase = instance * period
            if retire_at is None:
                if ibase + tau_min + red_min >= steady_floor:
                    retire_at = instance + cycle
            elif instance == retire_at:
                break  # every live lane is deadlocked: it stays -1
            if ibase + red_max >= horizon:
                # The reference returns None the moment an instance
                # starts at or past the horizon.
                state = state.compress(red < horizon - ibase, axis=1)
                lanes, red, delta, rxp, boot_end = state
                if not lanes.size:
                    break
                red_min, red_max = int(red.min()), int(red.max())
            for tau, duration in pattern:
                c = ibase + tau
                t_min = c + red_min
                t_max = c + red_max
                if t_max < 0 or t_min >= horizon:
                    continue  # no lane's query lies in [0, horizon)
                oversized = duration > hyper
                if oversized:
                    heard = np.zeros(lanes.size, dtype=bool)
                else:
                    lo = (c + delta) % hyper
                    k = starts_ext.searchsorted(lo, side="right")
                    if point:
                        heard = ends_ext[k] > lo
                    elif any_overlap:
                        heard = (ends_ext[k] > lo) | (
                            starts_ext[k] < lo + duration
                        )
                    else:  # CONTAINMENT: one segment spans the packet
                        heard = ends_ext[k] >= lo + duration
                partial = t_min < 0 or t_max >= horizon
                if partial or oversized or t_min < boot_max:
                    t = red + c
                    valid = None
                    if partial:
                        valid = (t >= 0) & (t < horizon)
                        heard &= valid
                    if oversized:
                        # Packets longer than the hyperperiod take the
                        # exact scalar path: the pattern holds only two
                        # hyperperiods.
                        slow = np.ones(lanes.size, dtype=bool)
                    else:
                        # Before a lane's boot end only a pattern "not
                        # heard" can be wrong (ListeningCache.boot_ends).
                        slow = ~heard & (t < boot_end)
                    if valid is not None:
                        slow &= valid
                    for j in np.flatnonzero(slow):
                        t_j = int(t[j])
                        heard[j] = packet_heard(
                            receiver, int(rxp[j]), t_j, t_j + duration,
                            model, turnaround,
                        )
                if heard.any():
                    hit = np.flatnonzero(heard)
                    result[lanes[hit]] = red[hit] + c
                    state = state.compress(~heard, axis=1)
                    lanes, red, delta, rxp, boot_end = state
                    if not lanes.size:
                        break
                    red_min, red_max = int(red.min()), int(red.max())
            instance += 1
        return result
