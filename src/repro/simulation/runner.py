"""Experiment drivers: pair simulations, offset sweeps and networks.

Three levels of fidelity:

* :func:`simulate_pair` -- event-driven run of two nodes until both
  first discoveries are decided, or provably never will be (supports
  drift, jitter, turnaround; collisions cannot occur with only one
  transmitter audible per receiver pair unless both transmit, which
  the channel handles).
* :func:`simulate_network` -- ``S`` devices discovering each other
  simultaneously on one collision-prone channel (the Appendix-B
  scenario).
* The exact analytic sweep lives in :mod:`repro.simulation.analytic`;
  :func:`verified_worst_case` replays spot-checked critical offsets in
  the DES and compares them with the sweep's own outcomes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..backends.base import CriticalSetTooLarge
from ..core.sequences import NDProtocol
from .analytic import (
    critical_offsets,
    DiscoveryOutcome,
    ReceptionModel,
    SweepReport,
)
from .channel import Channel
from .clock import DriftingClock, IdealClock
from .engine import Simulator
from .node import Node

__all__ = [
    "simulate_pair",
    "simulate_network",
    "NetworkResult",
    "sweep_network_grid",
    "verified_worst_case",
    "PairWorstCase",
]

#: E's clock in every drift-free pair: clocks are immutable, so all
#: replays share one instead of building it per replay.
_ORIGIN_CLOCK = IdealClock(phase=0)


def _make_pair(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    offset: int,
    sim: Simulator,
    channel: Channel,
    reception_model: ReceptionModel,
    turnaround: int,
    drift_ppm_e: int,
    drift_ppm_f: int,
    advertising_jitter: int,
    seed: int,
) -> tuple[Node, Node]:
    """Build the canonical two-device setup: E at phase 0, F at phase
    ``offset``, node seeds ``seed``/``seed + 1`` -- shared by every pair
    runner so the fidelity knobs cannot diverge between them again."""
    clock_e = (
        DriftingClock(phase=0, drift_ppm=drift_ppm_e)
        if drift_ppm_e
        else _ORIGIN_CLOCK
    )
    clock_f = (
        DriftingClock(phase=offset, drift_ppm=drift_ppm_f)
        if drift_ppm_f
        else IdealClock(phase=offset)
    )
    node_e = Node(
        "E",
        protocol_e,
        sim,
        channel,
        clock=clock_e,
        reception_model=reception_model,
        turnaround=turnaround,
        advertising_jitter=advertising_jitter,
        seed=seed,
    )
    node_f = Node(
        "F",
        protocol_f,
        sim,
        channel,
        clock=clock_f,
        reception_model=reception_model,
        turnaround=turnaround,
        advertising_jitter=advertising_jitter,
        seed=seed + 1,
    )
    return node_e, node_f


def _periodic_stop(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    turnaround: int,
) -> int | None:
    """The instant by which an ideal-clock, jitter-free pair replay at an
    integer offset has made every first decode it ever will, or ``None``
    when the pair's schedules are not all integers (then nothing is
    periodic on the integer grid).

    Packets starting before 0 never went on air, and neither did the
    receiver's pre-zero beacons, whose blocks end before
    ``D + turnaround`` (``D``: the longest beacon of either device).
    From then on every decode repeats with the joint hyperperiod
    ``H_j``, so a first decode is of a packet starting before
    ``D + turnaround + H_j`` and is decided by
    ``2 * (D + turnaround) + H_j``.  The instant does not depend on the
    offset, so a batch of replays of one pair computes it once.
    """
    values = [turnaround]
    longest = 0
    for protocol in (protocol_e, protocol_f):
        if protocol.beacons is not None:
            values.append(protocol.beacons.period)
            for beacon in protocol.beacons.beacons:
                values += (beacon.time, beacon.duration)
                longest = max(longest, beacon.duration)
        if protocol.reception is not None:
            values.append(protocol.reception.period)
            for window in protocol.reception.windows:
                values += (window.start, window.duration)
    if set(map(type, values)) != {int}:
        return None
    hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
    return 2 * (longest + turnaround) + hyper


def simulate_pair(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    offset: int,
    horizon: int,
    reception_model: ReceptionModel = ReceptionModel.POINT,
    turnaround: int = 0,
    drift_ppm_e: int = 0,
    drift_ppm_f: int = 0,
    advertising_jitter: int = 0,
    seed: int = 0,
) -> DiscoveryOutcome:
    """Event-driven discovery between two devices.

    Device E runs at phase 0, device F at phase ``offset``; both are in
    range from time 0.  Returns first-decode times per direction (packet
    start timestamps), ``None`` for directions not discovered within
    ``horizon``.

    The run stops as soon as every direction that can discover (its
    receiver listens and its sender beacons) has discovered: first
    decodes are set once, so later events cannot change the outcome.
    A pair with no such direction is not simulated at all.

    With ideal clocks, no advertising jitter and integer schedules,
    offset and turnaround, the run also stops at the periodicity point
    (:func:`_periodic_stop`): one joint hyperperiod past the boot
    transient plus the time to decide the packets started within it.
    A direction undecided by then never discovers, so a deadlocked
    replay costs about one joint hyperperiod of beacons instead of the
    whole horizon.  The stopped run is a prefix of the full run, so the
    outcome is the same.  Drifting, jittered and float-schedule pairs
    run to the horizon.
    """
    stop = None
    if not (drift_ppm_e or drift_ppm_f or advertising_jitter):
        stop = _periodic_stop(protocol_e, protocol_f, turnaround)
    return _replay_pair(
        protocol_e,
        protocol_f,
        offset,
        horizon,
        reception_model,
        turnaround,
        stop,
        drift_ppm_e,
        drift_ppm_f,
        advertising_jitter,
        seed,
    )


def _replay_pair(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    offset: int,
    horizon: int,
    reception_model: ReceptionModel,
    turnaround: int,
    stop: int | None,
    drift_ppm_e: int = 0,
    drift_ppm_f: int = 0,
    advertising_jitter: int = 0,
    seed: int = 0,
) -> DiscoveryOutcome:
    """The replay behind :func:`simulate_pair`, ending at the periodic
    ``stop`` (:func:`_periodic_stop` of the pair, or ``None``) when the
    offset is an integer.  ``stop`` must be ``None`` for drifting or
    jittered replays."""
    e_to_f = protocol_e.beacons is not None and protocol_f.reception is not None
    f_to_e = protocol_f.beacons is not None and protocol_e.reception is not None
    pending = e_to_f + f_to_e
    if not pending:
        return DiscoveryOutcome(
            offset=offset, e_discovered_by_f=None, f_discovered_by_e=None
        )
    sim = Simulator()
    channel = Channel()
    node_e, node_f = _make_pair(
        protocol_e,
        protocol_f,
        offset,
        sim,
        channel,
        reception_model,
        turnaround,
        drift_ppm_e,
        drift_ppm_f,
        advertising_jitter,
        seed,
    )

    def count_down(me: Node, peer: Node, time: int) -> None:
        nonlocal pending
        pending -= 1
        if not pending:
            sim.stop()

    node_e.on_discovery = node_f.on_discovery = count_down
    node_e.activate()
    node_f.activate()
    # Slack covers decode decisions deferred past the last packet end.
    end = horizon + turnaround + 1
    if stop is not None and type(offset) is int and stop < end:
        end = stop
    sim.run_until(end)
    return DiscoveryOutcome(
        offset=offset,
        e_discovered_by_f=node_f.discoveries.get("E"),
        f_discovered_by_e=node_e.discoveries.get("F"),
    )


@dataclass
class NetworkResult:
    """Outcome of a multi-device discovery scenario."""

    n_nodes: int
    horizon: int
    discovery_times: dict[tuple[str, str], int] = field(default_factory=dict)
    """``(receiver, sender) -> time`` for every completed discovery."""
    total_transmissions: int = 0
    total_collisions: int = 0
    packets_lost_to_collisions: int = 0

    @property
    def pairs_expected(self) -> int:
        """Directed pairs that could discover each other."""
        return self.n_nodes * (self.n_nodes - 1)

    @property
    def pairs_discovered(self) -> int:
        """Directed pairs that completed discovery within the horizon."""
        return len(self.discovery_times)

    @property
    def discovery_rate(self) -> float:
        """Fraction of directed pairs discovered."""
        if self.pairs_expected == 0:
            return 1.0
        return self.pairs_discovered / self.pairs_expected

    def latencies(self) -> list[int]:
        """All completed discovery latencies, sorted ascending."""
        return sorted(self.discovery_times.values())

    def quantile(self, q: float) -> int | None:
        """Latency quantile over *completed* discoveries (``None`` if no
        discovery completed).

        Nearest-rank semantics (matching
        :func:`repro.analysis.stats._quantile`): the smallest latency
        whose rank is at least ``q * n``, i.e. index ``ceil(q*n) - 1``,
        clamped to the sample.  ``quantile(0.5)`` over ``[1, 2, 3, 4]``
        is therefore 2 -- the value at rank 2 -- not 3 as naive
        ``int(q*n)`` truncation would give.
        """
        lat = self.latencies()
        if not lat:
            return None
        index = min(len(lat) - 1, max(0, math.ceil(q * len(lat)) - 1))
        return lat[index]


def simulate_network(
    protocols: list[NDProtocol],
    phases: list[int] | None = None,
    horizon: int = 10_000_000,
    reception_model: ReceptionModel = ReceptionModel.POINT,
    turnaround: int = 0,
    advertising_jitter: int = 0,
    drift_ppm: list[int] | None = None,
    start_times: list[int] | None = None,
    seed: int = 0,
) -> NetworkResult:
    """``S = len(protocols)`` devices discovering each other on one
    collision-prone channel (the Section 5.2.2 / Appendix B scenario).

    ``phases`` default to uniformly random offsets within each device's
    own schedule hyperperiod; pass explicit phases for reproducible
    adversarial placements.  ``start_times`` stagger device boots for
    gradual-join scenarios (a device neither transmits nor listens before
    its start time); discovery timestamps stay on the global clock.
    """
    n = len(protocols)
    if n < 2:
        raise ValueError("need at least two devices")
    rng = random.Random(seed)
    if phases is None:
        phases = []
        for proto in protocols:
            period = 1
            if proto.beacons is not None:
                period = max(period, int(proto.beacons.period))
            if proto.reception is not None:
                period = max(period, int(proto.reception.period))
            phases.append(rng.randrange(period))
    if len(phases) != n:
        raise ValueError("phases must match protocols in length")
    if drift_ppm is not None and len(drift_ppm) != n:
        raise ValueError("drift_ppm must match protocols in length")
    if start_times is not None and len(start_times) != n:
        raise ValueError("start_times must match protocols in length")

    sim = Simulator()
    channel = Channel()
    nodes: list[Node] = []
    for i, (proto, phase) in enumerate(zip(protocols, phases)):
        ppm = drift_ppm[i] if drift_ppm is not None else 0
        clock = (
            DriftingClock(phase=phase, drift_ppm=ppm)
            if ppm
            else IdealClock(phase=phase)
        )
        nodes.append(
            Node(
                f"n{i}",
                proto,
                sim,
                channel,
                clock=clock,
                reception_model=reception_model,
                turnaround=turnaround,
                advertising_jitter=advertising_jitter,
                seed=seed + i,
                start_time=start_times[i] if start_times is not None else 0,
            )
        )
    for node in nodes:
        node.activate()
    sim.run_until(horizon + turnaround + 1)

    result = NetworkResult(n_nodes=n, horizon=horizon)
    for node in nodes:
        for sender_name, time in node.discoveries.items():
            result.discovery_times[(node.name, sender_name)] = time
        result.packets_lost_to_collisions += node.packets_missed_collision
    result.total_transmissions = channel.total_transmissions
    result.total_collisions = channel.total_collisions
    return result


def simulate_pair_mutual_assistance(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    offset: int,
    horizon: int,
    reception_model: ReceptionModel = ReceptionModel.POINT,
    turnaround: int = 0,
    drift_ppm_e: int = 0,
    drift_ppm_f: int = 0,
    advertising_jitter: int = 0,
    seed: int = 0,
) -> DiscoveryOutcome:
    """Pair discovery with *mutual assistance* (Appendix C / Griassdi [13]).

    Each beacon carries the sender's next reception-window time; a device
    that discovers its peer schedules one extra response beacon into that
    announced window, converting a one-way discovery into a two-way one
    within at most one reception period -- "actually a form of
    synchronous connectivity", as the paper puts it.

    Accepts the same fidelity knobs as :func:`simulate_pair` (clock
    drift, advertising jitter, RNG seed) so Appendix-C experiments can
    study assistance under imperfect oscillators.

    Returns the two directed discovery times including assisted
    responses.  The interesting metric is ``two_way``: with assistance it
    tracks ``one_way + T_C`` instead of two independent one-way
    latencies.
    """
    sim = Simulator()
    channel = Channel()
    node_e, node_f = _make_pair(
        protocol_e,
        protocol_f,
        offset,
        sim,
        channel,
        reception_model,
        turnaround,
        drift_ppm_e,
        drift_ppm_f,
        advertising_jitter,
        seed,
    )
    nodes = {"E": node_e, "F": node_f}
    omega_by_node = {
        name: (
            int(node.protocol.beacons.beacons[0].duration)
            if node.protocol.beacons is not None
            else 32
        )
        for name, node in nodes.items()
    }

    def assist(discoverer: Node, sender: Node, time: int) -> None:
        # The discovered packet announced the sender's next window: the
        # discoverer answers inside it (schedules are known to the
        # simulator exactly as the payload would convey them).
        if sender.protocol.reception is None:
            return
        omega = omega_by_node[discoverer.name]
        for window in sender.protocol.reception.iter_windows(
            until=sim.now + 2 * int(sender.protocol.reception.period),
            phase=sender.clock.phase,
        ):
            # Aim at the window's middle so turnaround guards and the
            # sender's own beacons are unlikely to blank the response.
            target = int(window.start) + int(window.duration) // 2
            if target > sim.now + turnaround:
                discoverer.schedule_response_tx(omega, at=target)
                return

    node_e.on_discovery = lambda me, peer, t: assist(me, nodes[peer.name], t)
    node_f.on_discovery = lambda me, peer, t: assist(me, nodes[peer.name], t)
    node_e.activate()
    node_f.activate()
    sim.run_until(horizon + turnaround + 1)
    return DiscoveryOutcome(
        offset=offset,
        e_discovered_by_f=node_f.discoveries.get("E"),
        f_discovered_by_e=node_e.discoveries.get("F"),
    )


@dataclass(frozen=True)
class PairWorstCase:
    """Worst-case discovery of a protocol pair with DES cross-check.

    Every instance carries a provenance block describing *how* the
    engine's one tier ladder (analytic, critical, dense, des; see
    :func:`_verified_worst_case_impl`) produced the verdict: which tiers
    ran, whether a sampled sweep degraded exactness, the budget the
    planner worked against.  The provenance contract:

    * ``fidelity`` -- the **verdict**, not the request: ``"exact"``
      only when the critical-offset tier swept the complete breakpoint
      set, ``"bounded"`` whenever a sampled sweep stood in for it.
    * ``bound_interval`` -- ``(lo, hi)`` on the worst one-way latency:
      ``lo`` is the observed worst (a lower bound for sampled sweeps,
      the exact value otherwise, ``None`` when nothing discovered),
      ``hi`` the cheapest sound upper bound (``lo`` again when exact;
      else the analytic prediction capped by the horizon).
    * ``tiers`` -- one record per ladder tier in execution order
      (``critical`` / ``dense`` / ``des``, led by ``analytic`` for
      budgeted queries; ``dense`` only when it ran), each with ``ran``
      and, for budgeted queries, the planner's ``estimated_ms`` price --
      estimates, never wall-clock, so equal runs compare equal.
    * ``fallback_used`` -- the sampled (dense) tier replaced the exact
      enumeration, whether by guard overflow or by budget.
    """

    analytic: SweepReport
    des_agrees: bool
    """Did the event-driven simulator reproduce the numbers reported?
    Every DES replay of the des tier must equal the sweep's own outcome
    (both directions) at its offset: the outcomes ``analytic`` was
    reduced from, worst offsets included."""
    offsets_checked: int
    fidelity: str = "exact"
    """Verdict: ``"exact"`` or ``"bounded"`` (see class docstring)."""
    bound_interval: tuple | None = None
    """``(lo, hi)`` bounds on the worst one-way latency."""
    tiers: tuple = ()
    """Per-tier provenance records, in execution order."""
    fallback_used: bool = False
    """Did a sampled sweep replace the exact critical enumeration?"""
    budget_ms: float | None = None
    """The planner's budget for this query; ``None`` = unbudgeted."""


def _select_spot_check_offsets(
    offsets,
    required,
    count: int,
    rng_seed: int = 1234,
) -> tuple[list[int], list[int | None]]:
    """Deterministic, duplicate-free DES spot-check offset selection.

    Always includes every offset in ``required`` (the sweep's worst
    offsets), then fills up to ``min(count, unique offsets)`` with a
    seeded :meth:`random.Random.sample` over the remaining *unique*
    offsets in first-occurrence order.  Returns the chosen offsets,
    sorted, and each one's first position in the sequence ``offsets``
    (``None`` for a required offset it does not hold), so the caller
    reads the sweep's outcome at each without another pass.

    Replaces a rejection loop that drew until the set was full: with
    duplicate-heavy offset lists its target ``min(count, len(offsets))``
    over-counted duplicates, so fewer unique values than ``count`` spun
    it forever, and collision retries made the number of RNG draws an
    accident of the input.  Sampling without replacement from the
    deduplicated pool is exact, draw-count-stable and cannot stall.
    """
    n = len(offsets)
    # Walking the offsets backwards leaves each one's first position.
    first = dict(zip(reversed(offsets), range(n - 1, -1, -1)))
    unique = offsets if len(first) == n else list(dict.fromkeys(offsets))
    chosen = dict.fromkeys(offset for offset in required if offset is not None)
    need = min(count, len(unique)) - len(chosen)
    if need > 0:
        # The pool is ``unique`` less the chosen offsets.  Sampling its
        # positions draws what sampling its values would (``sample``
        # reads only the population's length), and each drawn position
        # steps over the chosen offsets' slots in ``unique``.
        slot = first if unique is offsets else dict(
            zip(unique, range(len(unique)))
        )
        taken = sorted(slot[offset] for offset in chosen if offset in slot)
        size = len(unique) - len(taken)
        rng = random.Random(rng_seed)
        for index in rng.sample(range(size), min(need, size)):
            for skipped in taken:
                if skipped > index:
                    break
                index += 1
            chosen[unique[index]] = None
    checked = sorted(chosen)
    return checked, [first.get(offset) for offset in checked]


def _one_way_upper(horizon: int, analytic_upper, lo) -> int:
    """Soundest cheap upper bound on the worst one-way latency: the
    analytic prediction capped by the horizon, never below an observed
    ``lo`` (an observation beating the model's bound wins)."""
    hi = int(horizon)
    if analytic_upper is not None:
        hi = min(hi, int(analytic_upper))
    if lo is not None and lo > hi:
        hi = int(lo)
    return hi


def _verified_worst_case_impl(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    horizon: int,
    omega: int | None = None,
    reception_model: ReceptionModel = ReceptionModel.POINT,
    turnaround: int = 0,
    max_critical: int = 200_000,
    des_spot_checks: int = 16,
    fallback_samples: int = 4096,
    sweeper=None,
    budget_ms: float | None = None,
    analytic_upper=None,
) -> PairWorstCase:
    """The worst-case engine behind :meth:`repro.api.Session.worst_case`
    and :func:`verified_worst_case`: one ladder of tiers, run in order.

    1. **analytic** (budgeted only) -- the predicted worst-case latency,
       capped by the horizon, seeds the upper bound.
    2. **critical** -- the exact critical-offset enumeration and full
       sweep: an exact verdict.  Only
       :class:`~repro.backends.base.CriticalSetTooLarge` skips it for
       size (any other ``ValueError`` out of a kernel is a bug and
       propagates).
    3. **dense** -- a sampled sweep in place of a skipped critical
       tier; its maximum is the lower bound.
    4. **des** -- one batch of DES spot checks: the sweep's worst
       offsets plus a seeded sample of the rest.  Each replay is
       compared with the sweep's outcome at that offset, read from the
       per-offset outcomes the report was reduced from (the selection
       hands back each offset's position), so it alone decides
       ``des_agrees`` and pays for the replays only.

    Unbudgeted, the critical tier always runs, the dense tier is a
    stride sample capped at ``fallback_samples`` offsets, and the des
    tier replays ``des_spot_checks`` offsets.  With ``budget_ms``,
    :class:`~repro.simulation.ladder.LadderPlanner` prices each tier
    before it runs: the critical tier runs only when its sweep fits
    (pre-priced by
    :func:`~repro.simulation.ladder.estimate_critical_count`, so an
    over-budget query never pays the enumeration), the dense tier is a
    prefix-nested low-discrepancy sample sized to what is left after a
    small DES reserve, and the des tier replays half the allocation the
    leftover affords.  Prices are estimates, never wall-clock, so
    identical queries produce identical provenance.

    ``sweeper`` (the session's :class:`repro.parallel.ParallelSweep`)
    runs the enumeration and the sweep on its resolved kernel.  The
    verdict is bit-identical for every runtime profile: enumeration,
    planning and spot-check selection are deterministic, and every
    kernel is pinned against the exact reference.
    """
    from .ladder import (
        estimate_critical_count,
        LadderPlanner,
        low_discrepancy_offsets,
    )

    if sweeper is None:
        from ..parallel import ParallelSweep

        sweeper = ParallelSweep(jobs=1)
    hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
    planner = None
    tier_records = []
    if budget_ms is not None:
        budget_ms = remaining = float(budget_ms)
        planner = LadderPlanner(protocol_e, protocol_f, horizon)
        tier_records.append(
            {"tier": "analytic", "ran": True,
             "upper_bound": _one_way_upper(horizon, analytic_upper, None),
             "estimated_ms": 0.0},
        )

    critical = {"tier": "critical", "ran": False}
    offsets = None
    if planner is not None:
        guess = estimate_critical_count(protocol_e, protocol_f, hyper)
        guess_ms = planner.sweep_ms(guess)
        if guess_ms > remaining:
            critical.update(
                estimated_offsets=guess, estimated_ms=guess_ms,
                reason="over-budget",
            )
    if "reason" not in critical:
        try:
            offsets = critical_offsets(
                protocol_e,
                protocol_f,
                omega=omega,
                max_count=max_critical,
                backend=sweeper._resolve_backend(),
                turnaround=turnaround,
            )
        except CriticalSetTooLarge:
            critical["reason"] = "critical-set-too-large"
    if offsets is not None:
        critical.update(ran=True, offsets=len(offsets))
        if planner is not None:
            estimate = planner.sweep_ms(len(offsets))
            critical["estimated_ms"] = estimate
            if estimate > remaining:
                critical.update(ran=False, reason="over-budget")
                offsets = None
            else:
                remaining -= estimate
    tier_records.append(critical)

    exact = offsets is not None
    if not exact:
        if planner is None:
            # range(0, hyper, step) yields ceil(hyper / step) offsets,
            # which overshoots whenever fallback_samples does not divide
            # hyper -- cap the sample at exactly what the spec asked for.
            step = max(1, hyper // fallback_samples)
            offsets = list(range(0, hyper, step))[:fallback_samples]
            dense = {"requested": fallback_samples}
        else:
            size = planner.dense_tier_size(remaining, des_spot_checks, hyper)
            offsets = low_discrepancy_offsets(hyper, size)
            dense = {"estimated_ms": planner.sweep_ms(len(offsets))}
            remaining -= dense["estimated_ms"]
        tier_records.append(
            {"tier": "dense", "ran": True, "offsets": len(offsets), **dense},
        )
    report, outcomes = sweeper.sweep_offsets(
        protocol_e, protocol_f, offsets, horizon, reception_model, turnaround,
        with_outcomes=True,
    )

    # Spot checks are sized to the leftover budget, never the other way
    # round; nothing affordable skips the tier, worst offsets included.
    count = des_spot_checks
    if planner is not None:
        allocation = planner.spot_check_allocation(remaining, des_spot_checks)
        count = max(1, allocation // 2) if allocation > 0 else None
    checked, positions = ([], []) if count is None else (
        _select_spot_check_offsets(
            offsets,
            (report.worst_offset_one_way, report.worst_offset_two_way),
            count,
        )
    )
    # The DES must reproduce the sweep's own outcome at every checked
    # offset: the numbers the report was reduced from.
    agrees = not checked or sweeper.spot_check_pairs(
        protocol_e, protocol_f, checked, horizon, reception_model, turnaround,
    ) == [outcomes[position] for position in positions]
    des = {"tier": "des", "ran": bool(checked), "checks": len(checked)}
    if planner is not None:
        des.update(
            allocation=allocation, estimated_ms=planner.checks_ms(len(checked))
        )
    tier_records.append(des)

    lo = report.worst_one_way
    hi = lo if exact else _one_way_upper(horizon, analytic_upper, lo)
    return PairWorstCase(
        analytic=report,
        des_agrees=agrees,
        offsets_checked=len(offsets),
        fidelity="exact" if exact else "bounded",
        bound_interval=(lo, hi),
        tiers=tuple(tier_records),
        fallback_used=not exact,
        budget_ms=budget_ms,
    )


def verified_worst_case(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    horizon: int,
    omega: int | None = None,
    reception_model: ReceptionModel = ReceptionModel.POINT,
    turnaround: int = 0,
    max_critical: int = 200_000,
    des_spot_checks: int = 16,
    fallback_samples: int = 4096,
) -> PairWorstCase:
    """Exact worst-case latency over all phase offsets, cross-validated.

    An in-process convenience: the engine runs on the auto-detected
    kernel with ``jobs=1``.  For another kernel, process parallelism, a
    fidelity budget or result caching, use
    :meth:`repro.api.Session.worst_case`, which returns the same
    verdict for every runtime profile.
    """
    return _verified_worst_case_impl(
        protocol_e,
        protocol_f,
        horizon,
        omega=omega,
        reception_model=reception_model,
        turnaround=turnaround,
        max_critical=max_critical,
        des_spot_checks=des_spot_checks,
        fallback_samples=fallback_samples,
    )


def _run_scenario(
    scenario,
    seed: int,
    reception_model: ReceptionModel = ReceptionModel.POINT,
    turnaround: int = 0,
    advertising_jitter: int = 0,
) -> NetworkResult:
    """Run one :class:`repro.workloads.Scenario` (duck-typed: anything
    with ``protocols``/``phases``/``horizon`` and optional
    ``drift_ppm``/``start_times``) through :func:`simulate_network`."""
    drift = getattr(scenario, "drift_ppm", None) or None
    starts = getattr(scenario, "start_times", None) or None
    return simulate_network(
        scenario.protocols,
        scenario.phases,
        horizon=scenario.horizon,
        reception_model=reception_model,
        turnaround=turnaround,
        advertising_jitter=advertising_jitter,
        drift_ppm=drift,
        start_times=starts,
        seed=seed,
    )


def sweep_network_grid(
    scenarios,
    *,
    base_seed: int = 0,
    reception_model: ReceptionModel = ReceptionModel.POINT,
    turnaround: int = 0,
    advertising_jitter: int = 0,
) -> list[NetworkResult]:
    """Run every scenario of a grid through the event-driven simulator.

    An in-process convenience (``jobs=1``).  Results come back in input
    order; each scenario's RNG seed derives from ``(base_seed, its grid
    index)`` via :func:`repro.parallel.derive_seed`, so
    :meth:`repro.api.Session.grid` and
    :meth:`repro.parallel.ParallelSweep.map_scenarios` return the same
    list for any ``jobs`` value -- scheduling is invisible to the RNG.
    """
    from ..parallel import ParallelSweep

    return ParallelSweep(jobs=1).map_scenarios(
        scenarios,
        base_seed=base_seed,
        reception_model=reception_model,
        turnaround=turnaround,
        advertising_jitter=advertising_jitter,
    )
