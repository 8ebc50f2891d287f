"""Exact pairwise discovery computation by schedule arithmetic.

For a *pair* of devices with known periodic schedules and no collisions,
discovery times are a deterministic function of the initial phase offset,
so they can be computed exactly -- no event loop, no sampling error.
This is the workhorse behind every bound-validation experiment: unroll
the transmitter's beacons over a horizon, intersect each with the
receiver's effective listening set (reception windows minus the
receiver's own half-duplex blocking), and report the first success.

Three reception models bracket the physics (Section 3.2 / Appendix A.3):

* ``POINT`` -- the paper's idealization: a beacon is a point event at its
  start time; received iff that instant lies in a window.  Coverage per
  window is ``d``; all bounds are stated in this model.
* ``ANY_OVERLAP`` -- received iff any part of the ``omega``-long packet
  overlaps a window (optimistic; coverage ``d + omega``).
* ``CONTAINMENT`` -- received iff the whole packet fits inside a window
  (what real radios need; coverage ``d - omega``, Appendix A.3).

For every configuration: ``L(ANY_OVERLAP) <= L(POINT) <= L(CONTAINMENT)``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from ..core.sequences import BeaconSchedule, NDProtocol, ReceptionSchedule

__all__ = [
    "ReceptionModel",
    "first_discovery",
    "mutual_discovery_times",
    "DiscoveryOutcome",
    "critical_offsets",
    "evaluate_offsets",
    "packet_heard",
    "summarize_outcomes",
    "sweep_offsets",
    "SweepReport",
]


class ReceptionModel(Enum):
    """How much of a packet must coincide with a reception window."""

    POINT = "point"
    ANY_OVERLAP = "any-overlap"
    CONTAINMENT = "containment"


def _window_segments(
    reception: ReceptionSchedule, rx_phase: int, lo: int, hi: int
) -> list[tuple[int, int]]:
    """Reception-window intervals of the receiver intersecting ``[lo, hi)``
    on the global time axis (half-open), before half-duplex blocking."""
    if hi <= lo:
        return []
    period = reception.period
    windows = reception.windows
    ends = reception.window_ends
    n = len(windows)
    instance = (lo - rx_phase - period) // period
    segments: list[tuple[int, int]] = []
    while True:
        base = rx_phase + instance * period
        if base >= hi:
            break
        # Ends increase strictly, so the windows ending after ``lo`` are
        # a suffix; step back over any that float rounding of
        # ``lo - base`` put on the wrong side of the bisect.
        i = bisect_right(ends, lo - base)
        while i > 0 and base + ends[i - 1] > lo:
            i -= 1
        while i < n:
            w = windows[i]
            w_lo = base + w.start
            if w_lo >= hi:
                break
            w_hi = base + w.end
            if w_hi > lo:
                segments.append((max(w_lo, lo), min(w_hi, hi)))
            i += 1
        instance += 1
    return segments


def _subtract_own_tx(
    segments: list[tuple[int, int]],
    own_beacons: BeaconSchedule | None,
    phase: int,
    lo: int,
    hi: int,
    turnaround: int = 0,
) -> list[tuple[int, int]]:
    """Remove the intervals during which the half-duplex radio transmits
    (with RX->TX / TX->RX turnaround guards) from the listening segments.

    This is the Appendix-A.5 self-blocking, computed exactly -- a packet
    may still be heard in the un-blocked remainder of a window.  Only
    beacons actually transmitted (send time >= 0) block; the schedule's
    periodic extension into negative time never went on air.

    One merge of the sorted segments with the own-TX blocks, which come
    out of the instance loop sorted by start.  Each segment yields its
    pieces outside the union of the blocks meeting it, unmerged with
    its neighbours (the CONTAINMENT model tells abutting windows apart).
    """
    if own_beacons is None or not segments:
        return segments
    period = own_beacons.period
    # A block reaches the turnaround past its beacon's end, so beacons up
    # to one period plus the turnaround before ``lo`` can still cover
    # [lo, hi).
    instance = (lo - phase - turnaround - period) // period - 1
    blocks = []
    while True:
        base = phase + instance * period
        if base - turnaround >= hi:
            break
        for b in own_beacons.beacons:
            tx_start = base + b.time
            if tx_start >= 0:  # devices start at time 0
                block_hi = base + b.end + turnaround
                blocks.append((tx_start - turnaround, block_hi))
        instance += 1
    cut: list[tuple[int, int]] = []
    n = len(blocks)
    first = 0
    for seg_lo, seg_hi in segments:
        # Blocks ending by ``seg_lo`` miss this and every later segment.
        while first < n and blocks[first][1] <= seg_lo:
            first += 1
        cursor = seg_lo
        k = first
        while k < n and blocks[k][0] < seg_hi:
            block_lo, block_hi = blocks[k]
            if cursor < block_lo:
                cut.append((cursor, block_lo))
            if cursor < block_hi:
                cursor = block_hi
            k += 1
        if cursor < seg_hi:
            cut.append((cursor, seg_hi))
    return cut


def listening_segments(
    receiver: NDProtocol,
    rx_phase: int,
    lo: int,
    hi: int,
    turnaround: int = 0,
) -> list[tuple[int, int]]:
    """The receiver's effective listening set restricted to ``[lo, hi)``:
    reception windows minus its own transmissions (plus guards)."""
    if receiver.reception is None:
        return []
    segments = _window_segments(receiver.reception, rx_phase, lo, hi)
    return _subtract_own_tx(
        segments, receiver.beacons, rx_phase, lo, hi, turnaround
    )


#: :func:`_point_tables` by ``(id(receiver), turnaround)``: the kernels'
#: exact fallback asks once per candidate, and building the tables costs
#: ``O(windows + beacons)``.  Each entry holds its receiver, so the id
#: cannot be reused while cached; the memo is cleared when full.
_POINT_TABLES: dict[tuple, tuple] = {}
_POINT_TABLES_CAP = 64


def _point_tables(receiver: NDProtocol, turnaround: int) -> tuple | None:
    """The receiver's constants for :func:`_point_heard`, or ``None`` when
    a schedule value or the turnaround is not an ``int``.

    ``(period, window starts, window ends, own period, own beacon
    times, own beacon ends)``; the own-beacon entries are ``None`` for a
    receiver that never transmits.
    """
    key = (id(receiver), turnaround)
    cached = _POINT_TABLES.get(key)
    if cached is not None and cached[0] is receiver:
        return cached[1]
    reception = receiver.reception
    starts = tuple(w.start for w in reception.windows)
    ends = reception.window_ends
    own = receiver.beacons
    if own is None:
        own_period = own_taus = own_ends = None
        own_values: tuple = ()
    else:
        own_period = own.period
        own_taus = tuple(b.time for b in own.beacons)
        own_ends = tuple(b.time + b.duration for b in own.beacons)
        own_values = (own_period, *own_taus, *own_ends)
    tables = None
    if all(
        type(value) is int
        for value in (
            reception.period, turnaround, *starts, *ends, *own_values
        )
    ):
        tables = reception.period, starts, ends, own_period, own_taus, own_ends
    if len(_POINT_TABLES) >= _POINT_TABLES_CAP:
        _POINT_TABLES.clear()
    _POINT_TABLES[key] = (receiver, tables)
    return tables


def _point_heard(
    tables: tuple, rx_phase: int, start: int, turnaround: int
) -> bool:
    """POINT decode on the integer grid, without segment lists.

    Every window and own-TX block bound is then an integer, so the
    listening set meets ``[start, start + 1)`` exactly when it contains
    ``start``.  Windows lie inside ``[0, period]``, so only the instance
    holding ``start`` can hold it, in its first window ending after
    ``start``.  Own beacons are bisected the same way (their ends
    increase too), from the first instance whose last block can still
    reach past ``start``; each blocks ``[time - turnaround, end +
    turnaround)`` when it was sent at a time >= 0.
    """
    period, starts, ends, own_period, own_taus, own_ends = tables
    base = rx_phase + (start - rx_phase) // period * period
    i = bisect_right(ends, start - base)
    if i == len(ends) or base + starts[i] > start:
        return False
    if own_period is None:
        return True
    m = len(own_ends)
    # Instances up to this one end their last block by ``start``.
    instance = (start - rx_phase - turnaround - own_ends[-1]) // own_period + 1
    while True:
        base = rx_phase + instance * own_period
        if base - turnaround > start:
            return True
        for j in range(bisect_right(own_ends, start - base - turnaround), m):
            tx_start = base + own_taus[j]
            if tx_start - turnaround > start:
                break
            if tx_start >= 0:
                return False
        instance += 1


def packet_heard(
    receiver: NDProtocol,
    rx_phase: int,
    start: int,
    end: int,
    model: ReceptionModel,
    turnaround: int,
) -> bool:
    """Decode decision for a packet occupying ``[start, end)``.

    * POINT: the effective listening set meets ``[start, start + 1)``
      (on the integer grid: contains the start instant).
    * ANY_OVERLAP: the listening set meets any part of the packet.
    * CONTAINMENT: one contiguous listening segment spans the packet.

    This is the exact per-query reference computation; the
    :class:`repro.parallel.ListeningCache` layer answers the same
    question from a precomputed periodic pattern and falls back to this
    function wherever translation invariance does not hold.  On the
    integer grid the POINT decision is a membership test that builds no
    segment lists (:func:`_point_heard`); off it, the segments decide.
    """
    if model is ReceptionModel.POINT:
        if receiver.reception is None:
            return False
        if type(start) is int and type(rx_phase) is int:
            tables = _point_tables(receiver, turnaround)
            if tables is not None:
                return _point_heard(tables, rx_phase, start, turnaround)
        segments = listening_segments(
            receiver, rx_phase, start, start + 1, turnaround
        )
        return bool(segments)
    segments = listening_segments(receiver, rx_phase, start, end, turnaround)
    if model is ReceptionModel.ANY_OVERLAP:
        return bool(segments)
    return segments == [(start, end)]


def first_discovery(
    transmitter: NDProtocol,
    receiver: NDProtocol,
    tx_phase: int,
    rx_phase: int,
    horizon: int,
    model: ReceptionModel = ReceptionModel.POINT,
    turnaround: int = 0,
) -> int | None:
    """Earliest time (>= 0) a beacon of ``transmitter`` is received by
    ``receiver``, or ``None`` within ``horizon``.

    Both devices are in range from time 0 and both schedules are
    doubly-infinite periodic extensions (``tx_phase``/``rx_phase`` are
    pure alignments, per Definition 3.4); no event before time 0 exists
    on air.  The receiver's own transmissions preempt its windows
    (half-duplex), with ``turnaround`` guard time on both sides.

    The candidates are enumerated as
    :meth:`~repro.core.sequences.BeaconSchedule.iter_beacons_infinite`
    does and :class:`repro.backends.python_loop.CachedPairEvaluator`
    inlines it: ``reduced + instance * period`` plus each ``(tau,
    duration)`` pair, with no ``Beacon`` object per candidate.  POINT
    candidates on the integer grid go straight to the list-free decode,
    its receiver constants built once per call.
    """
    if transmitter.beacons is None:
        raise ValueError("transmitter has no beacon schedule")
    if receiver.reception is None:
        raise ValueError("receiver has no reception schedule")
    tables = None
    if model is ReceptionModel.POINT and type(rx_phase) is int:
        tables = _point_tables(receiver, turnaround)
    schedule = transmitter.beacons
    period = schedule.period
    pattern = [(b.time, b.duration) for b in schedule.beacons]
    reduced = tx_phase % period
    instance = -1
    while True:
        base = reduced + instance * period
        if base >= horizon:
            return None
        for tau, duration in pattern:
            time = base + tau
            if 0 <= time < horizon:
                if tables is not None and type(time) is int:
                    if _point_heard(tables, rx_phase, time, turnaround):
                        return time
                elif packet_heard(
                    receiver, rx_phase, time, time + duration, model,
                    turnaround,
                ):
                    return time
        instance += 1


@dataclass(frozen=True)
class DiscoveryOutcome:
    """Both directions of a pairwise discovery for one phase offset."""

    offset: int
    e_discovered_by_f: int | None
    """Time F first receives a beacon of E (``None``: not within horizon)."""
    f_discovered_by_e: int | None
    """Time E first receives a beacon of F."""

    @property
    def one_way(self) -> int | None:
        """First discovery in either direction (Appendix-C metric)."""
        times = [
            t
            for t in (self.e_discovered_by_f, self.f_discovered_by_e)
            if t is not None
        ]
        return min(times) if times else None

    @property
    def two_way(self) -> int | None:
        """Both directions complete (Section 5.2 mutual-discovery metric)."""
        if self.e_discovered_by_f is None or self.f_discovered_by_e is None:
            return None
        return max(self.e_discovered_by_f, self.f_discovered_by_e)


def mutual_discovery_times(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    offset: int,
    horizon: int,
    model: ReceptionModel = ReceptionModel.POINT,
    turnaround: int = 0,
) -> DiscoveryOutcome:
    """Exact discovery times in both directions: E at phase 0, F at phase
    ``offset``, both in range from time 0."""
    e_by_f = None
    f_by_e = None
    if protocol_e.beacons is not None and protocol_f.reception is not None:
        e_by_f = first_discovery(
            protocol_e, protocol_f, 0, offset, horizon, model, turnaround
        )
    if protocol_f.beacons is not None and protocol_e.reception is not None:
        f_by_e = first_discovery(
            protocol_f, protocol_e, offset, 0, horizon, model, turnaround
        )
    return DiscoveryOutcome(
        offset=offset, e_discovered_by_f=e_by_f, f_discovered_by_e=f_by_e
    )


def critical_offsets(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    omega: int | None = None,
    max_count: int = 200_000,
    backend=None,
    turnaround: int = 0,
) -> list[int]:
    """Phase offsets at which the discovery-time function can change.

    Discovery times are piecewise-constant in the offset; breakpoints
    occur where some beacon boundary aligns with some window boundary
    (mod the schedule hyperperiod).  Evaluating at every breakpoint and
    one interior point per piece makes an offset sweep *exact*.  Points
    one microsecond on each side of every breakpoint are included (the
    integer-grid equivalent of one-sided limits).

    A non-zero half-duplex ``turnaround`` shifts the receivers'
    self-blocking guard edges off the window grid; passing it here adds
    those edges (and the boot-time activation anchors) to the
    enumeration, so pruned sweeps stay exact for ``turnaround > 0``
    too.  ``0`` (the default) reproduces the historical breakpoint set
    bit-identically.

    Considers both directions (E's beacons vs F's windows and vice
    versa).  Raises :class:`repro.backends.CriticalSetTooLarge` (a
    ``ValueError`` subclass) if the critical set would exceed
    ``max_count`` (fall back to a uniform sweep for such configs); the
    size guard runs on the *deduplicated* window-bound count, so
    duplicate-heavy schedules are judged by the breakpoints they
    actually produce.  Any *other* ``ValueError`` out of a kernel is a
    genuine error, never an overflow signal.

    The enumeration is the second kernel-dispatched
    :mod:`repro.backends` operation (PR 5).  ``backend=None`` (the
    default) runs the exact pure-python reference loop
    (:func:`repro.backends.python_loop.enumerate_critical_offsets_reference`)
    -- the anchor the property harness pins every kernel against.  Any
    other value resolves a :class:`repro.backends.SweepBackend` and
    dispatches to its
    :meth:`~repro.backends.SweepBackend.enumerate_critical_offsets`,
    bit-identical by contract (the ``numpy`` kernel replaces the double
    loop with batched modular arithmetic).  The worst-case engine
    behind ``verified_worst_case`` and
    :meth:`repro.api.Session.worst_case` threads its resolved kernel
    through it.
    """
    if backend is None:
        from ..backends.python_loop import enumerate_critical_offsets_reference

        return enumerate_critical_offsets_reference(
            protocol_e, protocol_f, omega, max_count, turnaround
        )
    from ..backends import resolve_backend, SweepParams

    params = SweepParams(
        protocol_e,
        protocol_f,
        horizon=0,
        model=ReceptionModel.POINT,
        turnaround=turnaround,
    )
    return resolve_backend(backend).enumerate_critical_offsets(
        params, omega=omega, max_count=max_count
    )


@dataclass(frozen=True)
class SweepReport:
    """Aggregate of a phase-offset sweep."""

    offsets_evaluated: int
    failures: int
    """Offsets with no discovery within the horizon."""
    worst_one_way: int | None
    worst_two_way: int | None
    mean_one_way: float | None
    mean_two_way: float | None
    worst_offset_one_way: int | None
    worst_offset_two_way: int | None


def evaluate_offsets(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    offsets: Iterable[int],
    horizon: int,
    model: ReceptionModel = ReceptionModel.POINT,
    turnaround: int = 0,
) -> list[DiscoveryOutcome]:
    """Per-offset discovery outcomes, in the order offsets are given.

    Batch-friendly primitive behind :func:`sweep_offsets`: a chunked
    executor can evaluate disjoint offset slices independently and
    aggregate them later (see :func:`summarize_outcomes`), since each
    outcome depends only on its own offset.

    This is the direct uncached reference computation -- the anchor the
    equivalence zoo compares every kernel against.  To run a sweep
    kernel, use :meth:`repro.parallel.ParallelSweep.evaluate_offsets` or
    :meth:`repro.api.Session.sweep`.
    """
    return [
        mutual_discovery_times(
            protocol_e, protocol_f, offset, horizon, model, turnaround
        )
        for offset in offsets
    ]


def summarize_outcomes(outcomes: Iterable[DiscoveryOutcome]) -> SweepReport:
    """Aggregate per-offset outcomes into a :class:`SweepReport`.

    Worst-case ties break toward the *earliest* outcome in iteration
    order (strict ``>`` updates only), so the result is a pure function
    of the outcome sequence -- the invariant the parallel executor's
    order-stable chunk merging relies on.
    """
    n = 0
    failures = 0
    worst_ow: int | None = None
    worst_tw: int | None = None
    worst_ow_off: int | None = None
    worst_tw_off: int | None = None
    sum_ow = 0
    sum_tw = 0
    count_ow = 0
    count_tw = 0
    for outcome in outcomes:
        n += 1
        ow = outcome.one_way
        tw = outcome.two_way
        if ow is None:
            failures += 1
        else:
            sum_ow += ow
            count_ow += 1
            if worst_ow is None or ow > worst_ow:
                worst_ow, worst_ow_off = ow, outcome.offset
        if tw is not None:
            sum_tw += tw
            count_tw += 1
            if worst_tw is None or tw > worst_tw:
                worst_tw, worst_tw_off = tw, outcome.offset
    return SweepReport(
        offsets_evaluated=n,
        failures=failures,
        worst_one_way=worst_ow,
        worst_two_way=worst_tw,
        mean_one_way=sum_ow / count_ow if count_ow else None,
        mean_two_way=sum_tw / count_tw if count_tw else None,
        worst_offset_one_way=worst_ow_off,
        worst_offset_two_way=worst_tw_off,
    )


def sweep_offsets(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    offsets: Iterable[int],
    horizon: int,
    model: ReceptionModel = ReceptionModel.POINT,
    turnaround: int = 0,
) -> SweepReport:
    """Evaluate both-direction discovery over a set of phase offsets and
    aggregate worst/mean statistics (the exact reference, like
    :func:`evaluate_offsets`)."""
    return summarize_outcomes(
        evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, model, turnaround
        )
    )
