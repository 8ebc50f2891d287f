"""Tier pricing for the budgeted worst-case ladder.

:class:`LadderPlanner` turns a per-query ``budget_ms`` into tier
decisions for ``Session.worst_case``'s adaptive fidelity ladder:

* price the **exact tier** (critical-offset enumeration + full sweep)
  and run it only when it fits the remaining budget;
* otherwise size a **dense tier** -- a nested low-discrepancy offset
  sample whose cost fits what the budget leaves after a DES reserve;
* price the **DES tier** per replay, so spot checks are cut (never the
  sweep) when the budget runs short.

Prices use the grid scheduler's event-rate cost formula
(:func:`~repro.parallel.schedule.default_simulation_cost`) with the
checked-in :data:`REFERENCE_WEIGHTS` -- seconds per event-rate unit,
the reference-machine fit :func:`~repro.parallel.schedule.fit_cost_weights`
produces from the bench's measured grid timings -- so one DES replay of
the pair is priced in seconds and budgets read as milliseconds.  One
analytic offset evaluation is priced at a fixed fraction of a replay
(:data:`ANALYTIC_OFFSET_FACTOR`).  The weights are a constant, not
process-wide state: refresh them by re-deriving the bench's
``fitted_cost_weights`` row and checking the new pair in.

The plan is a **pure function** of the spec (no wall-clock feedback, no
runtime setting), so tier selection is deterministic and reproducible:
the same query always runs the same tiers in every session, and a
larger budget can only grow the work -- the nested offset prefixes
below make the reported bound interval monotone in the budget.
"""

from __future__ import annotations

import math

from ..parallel.schedule import default_simulation_cost

__all__ = [
    "ANALYTIC_OFFSET_FACTOR",
    "DES_PRICE_MARGIN",
    "DES_RESERVE_CHECKS",
    "estimate_critical_count",
    "LadderPlanner",
    "low_discrepancy_offsets",
    "REFERENCE_WEIGHTS",
]

#: One analytic offset evaluation as a fraction of one DES replay: the
#: sweep kernels walk the same beacon/window structure but skip event
#: scheduling, channel arbitration and node state.  Part of the fixed
#: cost model -- chosen conservatively (analytic evaluation is usually
#: far cheaper) so a budgeted plan under-commits rather than overruns.
ANALYTIC_OFFSET_FACTOR = 0.05

#: Replays the dense-tier sizing reserves budget for, so a tight budget
#: still cross-checks the worst offsets instead of spending everything
#: on sweep resolution.
DES_RESERVE_CHECKS = 2

#: The DES tier only runs replays it can cover at this multiple of the
#: modelled price.  Replay prices are known to be optimistic: the
#: linear event-rate model omits the DES engine's per-slot stepping
#: cost, which dominates replays of long-hyperperiod slotted pairs
#: (measured ~40x on a 10.4 s-hyperperiod Disco pair).  The margin
#: makes under-pricing degrade to "skip the replay" rather than "blow
#: the budget" -- the analytic sweep already decided the verdict; the
#: replay only cross-checks it.
DES_PRICE_MARGIN = 2.0

#: Reference-machine ``(beacon, window)`` weights in seconds per
#: event-rate unit -- the scale ``fit_cost_weights`` produces from the
#: bench's measured grid timings.  The planner's whole cost model.
REFERENCE_WEIGHTS = (3.3e-06, 4.8e-06)

#: Floors keeping prices positive for degenerate schedules (a pair with
#: no beacons or windows has zero modelled cost but not zero real cost).
_MIN_DES_MS = 1e-3
_MIN_OFFSET_MS = 1e-4


def estimate_critical_count(protocol_e, protocol_f, hyper: int) -> int:
    """Cheap upper estimate of the pair's critical-offset count, priced
    **before** enumerating: each (beacon instance, window instance) pair
    over the joint hyperperiod contributes at most two alignment
    boundaries per direction -- the same product the kernels' overflow
    guard bounds.  Lets the budgeted ladder skip the exact tier without
    paying the enumeration it cannot afford to sweep anyway.  An
    over-estimate only makes a plan more conservative (bounded verdict
    where exact was just affordable), never unsound.
    """
    total = 0
    for tx, rx in ((protocol_e, protocol_f), (protocol_f, protocol_e)):
        if tx.beacons is None or rx.reception is None:
            continue
        beacons = tx.beacons.n_beacons * max(
            1, hyper // max(1, int(tx.beacons.period))
        )
        windows = rx.reception.n_windows * max(
            1, hyper // max(1, int(rx.reception.period))
        )
        total += 2 * beacons * windows
    return total


def low_discrepancy_offsets(hyper: int, count: int) -> list[int]:
    """The first ``count`` terms of a deterministic low-discrepancy
    sequence over ``[0, hyper)`` (bit-reversed van der Corput, base 2),
    deduplicated, in generation order.

    The sequences are **prefix-nested**: the offsets for ``count=n``
    are exactly the first ``n`` of the offsets for any larger count.
    That is what makes the budgeted bound monotone -- a bigger budget
    evaluates a superset of offsets, so the observed lower bound can
    only rise.  Integer arithmetic throughout (hyperperiods overflow
    doubles).
    """
    if hyper <= 0:
        raise ValueError(f"hyper must be positive, got {hyper}")
    count = min(count, hyper)
    offsets: list[int] = []
    seen: set[int] = set()
    index = 0
    while len(offsets) < count:
        if index == 0:
            value = 0
        else:
            bits = index.bit_length()
            reversed_index = int(format(index, f"0{bits}b")[::-1], 2)
            value = hyper * reversed_index >> bits
        index += 1
        if value not in seen:
            seen.add(value)
            offsets.append(value)
    return offsets


class LadderPlanner:
    """Deterministic tier prices for one worst-case query, priced with
    :data:`REFERENCE_WEIGHTS` (module docs)."""

    def __init__(self, protocol_e, protocol_f, horizon):
        pair_cost_s = default_simulation_cost(
            (protocol_e, protocol_f), horizon, REFERENCE_WEIGHTS
        )
        #: Price of one DES replay of the pair over the horizon, ms.
        self.des_ms = max(pair_cost_s * 1000.0, _MIN_DES_MS)
        #: Price of one analytic offset evaluation, ms.
        self.offset_ms = max(
            self.des_ms * ANALYTIC_OFFSET_FACTOR, _MIN_OFFSET_MS
        )

    def sweep_ms(self, n_offsets: int) -> float:
        """Estimated cost of sweeping ``n_offsets`` offsets, ms."""
        return n_offsets * self.offset_ms

    def checks_ms(self, n_checks: int) -> float:
        """Estimated cost of ``n_checks`` DES spot-check replays, ms."""
        return n_checks * self.des_ms

    def affordable_offsets(self, budget_ms: float) -> int:
        """How many analytic offset evaluations ``budget_ms`` buys."""
        if budget_ms <= 0:
            return 0
        return int(budget_ms / self.offset_ms)

    def affordable_checks(self, budget_ms: float) -> int:
        """How many DES replays ``budget_ms`` buys."""
        if budget_ms <= 0:
            return 0
        return int(budget_ms / self.des_ms)

    def spot_check_allocation(self, remaining_ms: float,
                              des_spot_checks: int) -> int:
        """DES replays the leftover budget affords at
        :data:`DES_PRICE_MARGIN` over the modelled replay price (see
        the margin's rationale)."""
        return min(
            des_spot_checks,
            self.affordable_checks(remaining_ms / DES_PRICE_MARGIN),
        )

    def dense_tier_size(self, remaining_ms: float, des_spot_checks: int,
                        hyper: int) -> int:
        """Offsets the dense tier should evaluate: what the remaining
        budget affords after reserving :data:`DES_RESERVE_CHECKS`
        replays (never more than the hyperperiod holds, never fewer
        than one -- an admitted query always produces *some* bound).
        Monotone non-decreasing in ``remaining_ms``."""
        reserve = self.checks_ms(min(des_spot_checks, DES_RESERVE_CHECKS))
        affordable = self.affordable_offsets(remaining_ms - reserve)
        return max(1, min(affordable, hyper))
