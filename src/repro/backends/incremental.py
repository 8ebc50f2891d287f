"""Incremental cross-offset sweep engine: decode positions as state.

The batch kernels (numpy, PR 3) answer every ``(candidate, offset)``
decode query independently: one ``searchsorted`` over the pattern per
beacon candidate, ``O(log segments)`` each.  But the queries are not
independent -- a sweep's offsets form an arithmetic progression (the
shape every uniform sweep and the grid scheduler emit), and successive
beacon candidates advance every lane's phase residue by the **same**
delta::

    lo_k(candidate) = (C_candidate + D_k) mod H
    C = instance * period + tau          # shared by all lanes
    D_k = (tx_phase_k mod period) - rx_phase_k   # per-lane constant

so the segment index of lane ``k`` at the next candidate is its current
index advanced past however many segment boundaries the shared delta
``dC = C' - C (mod H)`` crossed -- usually zero or one.  This module
keeps exactly that state: it computes the first evaluated candidate's
decode positions once (one ``searchsorted`` over all lanes), then
advances ``(lo, index)`` per candidate by the stride delta,
re-resolving only the windows whose segment index changed (lanes whose
residue wrapped past the hyperperiod, or dense advances past the walk
budget), making the amortized per-offset cost **O(changed windows)**
instead of ``O(log patterns)`` per candidate.

Bit-identity is structural, not approximate: the candidate enumeration
order, the per-instance horizon termination, the boot screen (a lane
whose pattern says "not heard" before its
:meth:`~repro.parallel.cache.ListeningCache.boot_ends` instant takes
the exact scalar ``packet_heard`` path; every other lane keeps the
pattern decision, exactly like the batch kernel) and the three
reception-model decision predicates are copied from
:meth:`repro.backends.numpy_kernel.NumpyBackend._first_discovery_batch`;
only the *index computation* is incremental, and the walk maintains the
invariant ``index == bisect_right(starts, lo) - 1`` at every evaluated
candidate.

Preconditions (:func:`first_discovery_incremental` returns ``None`` and
the caller falls back to the batch kernel when unmet):

* the receiver's listening pattern is precomputed and non-empty (the
  caller's vectorization gate already guarantees an integer grid inside
  the int64 headroom);
* every beacon duration fits inside the pattern hyperperiod (otherwise
  some candidates would need the exact path forever -- the batch kernel
  handles that per element, so it keeps those batches);
* the batch has at least :data:`MIN_LANES` offsets -- below that the
  state bookkeeping costs more than the searches it saves.

Callers additionally gate on :func:`arithmetic_stride` -- the
engine's *target* workload is the strided batch, where every chunk a
sweep driver emits keeps the progression -- with an explicit
``use_incremental`` escape hatch on the kernels for benching the
incremental path against the plain batch formulation.  (The candidate
delta ``dC`` is offset-independent, so the state machine itself never
reads the stride; the gate keeps the fast path on the workload shape it
is measured on.)

The ``numpy`` kernel is the one caller.
"""

from __future__ import annotations

from ..simulation.analytic import ReceptionModel
from . import _np

__all__ = ["arithmetic_stride", "first_discovery_incremental", "MIN_LANES"]

#: Fewer lanes than this and the per-candidate state upkeep outweighs
#: the searches it replaces -- callers keep the batch kernel.
MIN_LANES = 8

#: A candidate advance of more than ``hyper // DENSE_FRACTION`` crosses
#: too many boundaries to walk; those candidates re-resolve wholesale.
_DENSE_FRACTION = 8

#: Vectorized walk iterations before the stragglers re-resolve exactly.
_MAX_WALK = 8


def arithmetic_stride(offset_vec) -> int | None:
    """The batch's common stride, or ``None`` if it is not an
    arithmetic progression of at least :data:`MIN_LANES` offsets with a
    non-zero stride (the incremental engine's gate)."""
    np = _np.np
    if offset_vec.size < MIN_LANES:
        return None
    deltas = np.diff(offset_vec)
    stride = int(deltas[0])
    if stride == 0 or not bool((deltas == deltas[0]).all()):
        return None
    return stride


def first_discovery_incremental(
    transmitter,
    cache,
    tx_phases,
    rx_phases,
    horizon: int,
    model: ReceptionModel,
):
    """First-discovery times for every phase pair (``-1``: none), or
    ``None`` when the preconditions (module docstring) fail.

    Drop-in for the batch kernel's ``_first_discovery_batch``: same
    int64 inputs, same candidate order, bit-identical output array.
    """
    np = _np.np
    schedule = transmitter.beacons
    period = schedule.period
    pattern = [(int(b.time), int(b.duration)) for b in schedule.beacons]
    starts, ends = cache.pattern_arrays()
    n_segments = int(starts.size)
    hyper = cache.hyper
    if (
        n_segments == 0
        or tx_phases.size < MIN_LANES
        or any(duration > hyper for _, duration in pattern)
    ):
        return None
    point = model is ReceptionModel.POINT
    any_overlap = model is ReceptionModel.ANY_OVERLAP
    heard_exact = cache.packet_heard

    # Sentinel-extended pattern arrays turn every decision predicate
    # into one gather at ``index + 1`` with no bounds masks: slot 0
    # (-1) answers "before the first segment", slot ``n`` (2H+1, above
    # any residue and any ``lo + duration``) answers "past the last".
    ends_ext = np.empty(n_segments + 1, dtype=np.int64)
    ends_ext[0] = -1
    ends_ext[1:] = ends
    starts_ext = np.empty(n_segments + 1, dtype=np.int64)
    starts_ext[:n_segments] = starts
    starts_ext[n_segments] = 2 * hyper + 1

    n = int(tx_phases.size)
    result = np.full(n, -2, dtype=np.int64)
    red = tx_phases % period
    lane_delta = red - rx_phases  # D_k: the per-lane residue constant
    rxp = rx_phases
    boot_end = cache.boot_ends(rx_phases)
    boot_max = int(boot_end.max())
    lanes = np.arange(n)
    red_min = int(red.min())
    red_max = int(red.max())
    lo = None
    idx = None
    c_last = 0
    dense = max(1, hyper // _DENSE_FRACTION)
    instance = -1
    while lanes.size:
        ibase = instance * period
        # Per-instance horizon termination, exactly as the batch kernel:
        # lanes whose instance starts at or past the horizon resolve to
        # "never".  The scalar bound makes the vector compare rare.
        if ibase + red_max >= horizon:
            over = red >= horizon - ibase
            if over.any():
                result[lanes[over]] = -1
                keep = ~over
                lanes = lanes[keep]
                red = red[keep]
                lane_delta = lane_delta[keep]
                rxp = rxp[keep]
                boot_end = boot_end[keep]
                if lo is not None:
                    lo = lo[keep]
                    idx = idx[keep]
                if not lanes.size:
                    break
                red_min = int(red.min())
                red_max = int(red.max())
        for tau, duration in pattern:
            c = ibase + tau
            t_min = c + red_min
            t_max = c + red_max
            if t_max < 0 or t_min >= horizon:
                # No lane has a valid query here; the skipped span folds
                # into the next evaluated candidate's delta.
                continue
            if lo is None:
                # First evaluated candidate: decode positions computed
                # once, the only full-batch search on the happy path.
                lo = (c + lane_delta) % hyper
                idx = np.searchsorted(starts, lo, side="right") - 1
            else:
                d_c = (c - c_last) % hyper
                if d_c:
                    lo += d_c
                    wrapped = lo >= hyper
                    if wrapped.any():
                        # Wrapped residues restart below the first
                        # boundary; the walk below re-resolves them.
                        lo[wrapped] -= hyper
                        idx[wrapped] = -1
                    if d_c > dense:
                        idx = np.searchsorted(starts, lo, side="right") - 1
                    else:
                        for _ in range(_MAX_WALK):
                            advance = starts_ext[idx + 1] <= lo
                            if not advance.any():
                                break
                            idx[advance] += 1
                        else:
                            lagging = starts_ext[idx + 1] <= lo
                            if lagging.any():
                                idx[lagging] = (
                                    np.searchsorted(
                                        starts, lo[lagging], side="right"
                                    )
                                    - 1
                                )
            c_last = c
            # Decision predicates identical to the batch kernel's, via
            # the sentinel slots instead of bounds masks.
            if point:
                hit = ends_ext[idx + 1] > lo
            elif any_overlap:
                hit = (ends_ext[idx + 1] > lo) | (
                    starts_ext[idx + 1] < lo + duration
                )
            else:  # CONTAINMENT: one segment spans the packet
                hit = ends_ext[idx + 1] >= lo + duration
            if t_min >= 0 and t_max < horizon and t_min >= boot_max:
                heard = hit
            else:
                t = red + c
                heard = hit
                if t_min < 0 or t_max >= horizon:
                    valid = (t >= 0) & (t < horizon)
                    heard = heard & valid
                else:
                    valid = None
                if t_min < boot_max:
                    # Before a lane's boot end only a pattern "not
                    # heard" can be wrong: exact scalar path for those,
                    # as the batch kernel.
                    slow = ~hit & (t < boot_end)
                    if valid is not None:
                        slow &= valid
                    for j in np.flatnonzero(slow):
                        t_j = int(t[j])
                        if heard_exact(
                            int(rxp[j]), t_j, t_j + duration, model
                        ):
                            heard[j] = True
            if heard.any():
                result[lanes[heard]] = red[heard] + c
                keep = ~heard
                lanes = lanes[keep]
                red = red[keep]
                lane_delta = lane_delta[keep]
                rxp = rxp[keep]
                boot_end = boot_end[keep]
                lo = lo[keep]
                idx = idx[keep]
                if not lanes.size:
                    break
                red_min = int(red.min())
                red_max = int(red.max())
        instance += 1
    return result
