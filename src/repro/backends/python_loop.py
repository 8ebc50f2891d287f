"""The ``python`` backend: the analytic reference behind the kernel API.

:class:`PythonBackend` answers every batch through
:func:`repro.simulation.analytic.evaluate_offsets`, the uncached
per-offset computation of the paper's discovery latency, so the
``python`` kernel *is* the reference every other backend is pinned
bit-identical against, not a copy of it.  It has no dependencies
beyond the standard library and runs everywhere, which is why
auto-detection falls back to it.

The module also holds the exact critical-offset enumeration
(:func:`enumerate_critical_offsets_reference`) and the breakpoint-list
helpers both kernels build their enumeration inputs from.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..core.sequences import BeaconSchedule, NDProtocol, ReceptionSchedule
from ..simulation.analytic import DiscoveryOutcome, evaluate_offsets
from .base import CriticalSetTooLarge, SweepBackend, SweepParams

__all__ = [
    "critical_window_bounds",
    "direction_breakpoint_inputs",
    "enumerate_critical_offsets_reference",
    "PythonBackend",
    "turnaround_guard_bounds",
]


def critical_window_bounds(
    rx: ReceptionSchedule, hyper: int, omega: int | None
) -> list[int]:
    """Deduplicated window-boundary instants of ``rx`` over one
    hyperperiod (first-occurrence order).

    Every window contributes its start and end (plus the ``- omega``
    shifted twins when a packet length is given), per schedule instance.
    Duplicates -- abutting windows share a boundary, and an ``omega``
    equal to a multiple of the window grid folds shifted bounds onto
    unshifted ones -- are dropped *before* any size guard looks at the
    count, so duplicate-heavy schedules are judged by the breakpoints
    they actually produce (the PR-5 guard fix).
    """
    bounds: list[int] = []
    n_instances = hyper // int(rx.period)
    for instance in range(n_instances):
        base = instance * int(rx.period)
        for w in rx.windows:
            bounds.append(base + int(w.start))
            bounds.append(base + int(w.end))
            if omega:
                bounds.append(base + int(w.start) - omega)
                bounds.append(base + int(w.end) - omega)
    return list(dict.fromkeys(bounds))


def turnaround_guard_bounds(
    rx_protocol: NDProtocol,
    hyper: int,
    omega: int | None,
    turnaround: int,
) -> list[int]:
    """Self-blocking guard edges of the receiver's own transmissions
    over one hyperperiod (deduplicated, first-occurrence order).

    With ``turnaround > 0`` a half-duplex receiver's effective listening
    set is its windows minus ``[tx_start - turnaround, tx_end +
    turnaround)`` around each of its own beacons
    (:func:`repro.simulation.analytic._subtract_own_tx`), so the
    discovery-time function can also change where a peer's beacon aligns
    with a guard edge.  Each own-beacon instance contributes its guarded
    edges *and* its bare start/end -- the bare start is the activation
    threshold (a block exists only once ``tx_start >= 0``) -- plus the
    ``- omega`` shifted twins when a packet length is given, mirroring
    :func:`critical_window_bounds`.
    """
    beacons = rx_protocol.beacons
    if beacons is None or not turnaround:
        return []
    bounds: list[int] = []
    n_instances = hyper // int(beacons.period)
    for instance in range(n_instances):
        base = instance * int(beacons.period)
        for b in beacons.beacons:
            for edge in (
                base + int(b.time) - turnaround,
                base + int(b.time),
                base + int(b.end),
                base + int(b.end) + turnaround,
            ):
                bounds.append(edge)
                if omega:
                    bounds.append(edge - omega)
    return list(dict.fromkeys(bounds))


def direction_breakpoint_inputs(
    tx: BeaconSchedule,
    rx_protocol: NDProtocol,
    hyper: int,
    omega: int | None,
    turnaround: int,
) -> tuple[list[int], list[int]]:
    """``(beacon_times, breakpoint_bounds)`` for one enumeration
    direction -- the single source both kernels draw from, so their
    size guards and outputs stay bit-identical by construction.

    At ``turnaround == 0`` this reproduces the historical inputs exactly
    (beacon times over one hyperperiod, window bounds of the receiver).
    With ``turnaround > 0`` it adds the receiver's self-blocking guard
    edges (:func:`turnaround_guard_bounds`) plus two virtual anchors
    that make boot-time effects enumerable: bound ``0`` (a transmitter
    beacon crossing global time 0 -- candidates before a device boots
    never went on air) and beacon time ``0`` (pairing every bound with
    the origin, which captures block-activation flips at
    ``tx_start = 0``).
    """
    n_beacons = hyper // int(tx.period) * tx.n_beacons
    beacon_times = [int(tau) for tau in tx.beacon_times(n_beacons)]
    bounds = critical_window_bounds(rx_protocol.reception, hyper, omega)
    if turnaround:
        guard = turnaround_guard_bounds(rx_protocol, hyper, omega, turnaround)
        bounds = list(dict.fromkeys(bounds + guard + [0]))
        if 0 not in beacon_times:
            beacon_times = beacon_times + [0]
    return beacon_times, bounds


def enumerate_critical_offsets_reference(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    omega: int | None = None,
    max_count: int = 200_000,
    turnaround: int = 0,
) -> list[int]:
    """The exact pure-python critical-offset enumeration.

    The reference loop behind
    :func:`repro.simulation.analytic.critical_offsets`, extracted here
    (PR 5) so it sits next to the sweep kernels it feeds and so the
    vectorized :class:`repro.backends.numpy_kernel.NumpyBackend`
    enumeration can be pinned bit-identical against it.  Semantics are
    unchanged except for one bugfix: the pre-enumeration size guard now
    runs on the *deduplicated* window-bound count
    (:func:`critical_window_bounds`), so duplicate-heavy schedules whose
    actual critical set is small are no longer rejected.

    ``turnaround > 0`` additionally enumerates the receiver's
    self-blocking guard edges (:func:`direction_breakpoint_inputs`), so
    pruned sweeps stay exact under half-duplex turnaround; ``0`` leaves
    the historical output bit-identical.
    """
    hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())

    offsets: set[int] = set()

    def add_direction(
        tx: BeaconSchedule | None, rx_protocol: NDProtocol, sign: int
    ) -> None:
        if tx is None or rx_protocol.reception is None:
            return
        beacon_times, window_bounds = direction_breakpoint_inputs(
            tx, rx_protocol, hyper, omega, turnaround
        )
        if len(beacon_times) * len(window_bounds) > max_count * 4:
            raise CriticalSetTooLarge(
                f"critical set too large "
                f"({len(beacon_times)} beacons x {len(window_bounds)} bounds); "
                f"use a uniform sweep"
            )
        for tau in beacon_times:
            for bound in window_bounds:
                base_offset = (sign * (bound - tau)) % hyper
                offsets.add(base_offset)
                offsets.add((base_offset - 1) % hyper)
                offsets.add((base_offset + 1) % hyper)
        if len(offsets) > max_count:
            raise CriticalSetTooLarge(
                f"critical set exceeded {max_count} offsets; "
                f"use a uniform sweep"
            )

    # F is shifted by +offset.  E->F: a beacon of E at tau meets a window
    # bound of F (sitting at offset + bound) when tau = offset + bound,
    # so breakpoints fall at offset = tau - bound (sign -1).  F->E: F's
    # beacon at offset + tau meets E's bound when offset = bound - tau
    # (sign +1).  The pre-PR-5 code had the two signs swapped -- masked
    # for symmetric pairs, whose two directions mirror each other, but
    # missing true breakpoints (and worst cases) for asymmetric ones;
    # caught by the property harness's duplicate-heavy regression pair.
    add_direction(protocol_e.beacons, protocol_f, -1)
    add_direction(protocol_f.beacons, protocol_e, +1)
    return sorted(offsets)


class PythonBackend(SweepBackend):
    """The reference kernel behind ``backend="python"``.

    Each batch is :func:`repro.simulation.analytic.evaluate_offsets`
    over its offsets: no listening pattern and no registry lookup.  On
    the POINT model, the paper's, the reference decodes on the integer
    grid without segment lists, about as fast as a pattern lookup in
    pure python.  On ANY_OVERLAP and CONTAINMENT it builds a segment list
    per candidate beacon, which is slower than a pattern lookup: over the 14
    bench families at turnaround 0, at most 1,500 critical offsets each
    (2 vCPU), 1.4-2.6x per family on ANY_OVERLAP and 1.6-5.2x on
    CONTAINMENT (3.7 s against 1.1 s in total).  No benchmark workload
    sweeps those models on this kernel; select ``numpy`` for speed.
    """

    name = "python"

    def evaluate_offsets_batch(
        self, params: SweepParams, offsets: Sequence[int]
    ) -> list[DiscoveryOutcome]:
        return evaluate_offsets(
            params.protocol_e,
            params.protocol_f,
            offsets,
            params.horizon,
            params.model,
            params.turnaround,
        )
