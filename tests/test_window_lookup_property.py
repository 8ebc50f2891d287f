"""Property test: the bisected window lookups equal a linear scan.

Both reception-window lookups -- ``Node._window_segments`` in the
event-driven simulator and ``analytic._window_segments`` in the exact
pair computation -- bisect the schedule's sorted window ends instead of
scanning every window of every period instance.  Hypothesis compares
each with the linear scan kept below on random multi-window schedules,
under ideal clocks, drifting clocks at +-(1..200) ppm (where the global
<-> local mapping rounds), late device boots (``start_time > 0``) and
non-integer window grids.

The POINT decodes build no segment lists at all -- ``Node.is_listening_at``
and ``analytic.packet_heard(..., POINT)`` walk the windows and the
receiver's own transmission blocks directly -- so they are compared
with the linear scan of the windows minus the own-TX blocks, with
turnaround guards of 0, 5 and 50 and query instants snapped onto window
and block edges.

``analytic.listening_segments`` -- the segment lists the
``ListeningCache`` patterns and the ANY_OVERLAP/CONTAINMENT decodes are
built from -- merges the sorted windows with the own-TX blocks in one
pass; it is compared list for list with the linear scan minus every
block, over ranges of up to 20 reception periods and with a guard wide
enough for neighbouring blocks to overlap.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sequences import (
    Beacon,
    BeaconSchedule,
    NDProtocol,
    ReceptionSchedule,
    ReceptionWindow,
)
from repro.simulation.analytic import (
    _window_segments,
    listening_segments,
    packet_heard,
    ReceptionModel,
)
from repro.simulation.channel import Channel
from repro.simulation.clock import DriftingClock, IdealClock
from repro.simulation.engine import Simulator
from repro.simulation.node import Node


def linear_window_segments(reception, to_global, to_local, lo, hi):
    """Every window of every instance that can touch ``[lo, hi)``,
    tested one by one (local schedule time -> global via ``to_global``)."""
    if hi <= lo:
        return []
    period = reception.period
    instance = (to_local(lo) - period) // period
    segments = []
    while True:
        base = instance * period
        if to_global(base) >= hi:
            break
        for w in reception.windows:
            w_lo = to_global(base + w.start)
            w_hi = to_global(base + w.end)
            if w_lo < hi and w_hi > lo:
                segments.append((max(w_lo, lo), min(w_hi, hi)))
        instance += 1
    return segments


def linear_analytic_segments(reception, rx_phase, lo, hi):
    """The same scan with the analytic path's arithmetic order (the
    phase joins the instance base first), so float grids round alike."""
    if hi <= lo:
        return []
    period = reception.period
    instance = (lo - rx_phase - period) // period
    segments = []
    while True:
        base = rx_phase + instance * period
        if base >= hi:
            break
        for w in reception.windows:
            w_lo = base + w.start
            w_hi = base + w.end
            if w_lo < hi and w_hi > lo:
                segments.append((max(w_lo, lo), min(w_hi, hi)))
        instance += 1
    return segments


@st.composite
def reception_schedules(draw, unit=1):
    """1-8 sorted, disjoint windows on a grid of ``unit``; integer
    grids may abut windows, float grids keep a gap so rounding cannot
    make them overlap."""
    min_gap = 0 if unit == 1 else 1
    n = draw(st.integers(1, 8))
    windows = []
    cursor = draw(st.integers(0, 200))
    for _ in range(n):
        duration = draw(st.integers(1, 400))
        windows.append(ReceptionWindow(cursor * unit, duration * unit))
        cursor += duration + draw(st.integers(min_gap, 300))
    period = cursor + draw(st.integers(0, 300))
    return ReceptionSchedule(windows, period * unit)


clocks = st.one_of(
    st.builds(IdealClock, phase=st.integers(-50_000, 50_000)),
    st.builds(
        DriftingClock,
        phase=st.integers(-50_000, 50_000),
        drift_ppm=st.integers(1, 200).flatmap(
            lambda ppm: st.sampled_from([ppm, -ppm])
        ),
    ),
)
# Query positions: near the origin and far out, where drift rounding
# has accumulated.
positions = st.one_of(
    st.integers(-20_000, 200_000), st.integers(10**8, 10**10)
)


def near_window_edge(data, reception, to_global, to_local, position):
    """``position``, or a point within two ticks of the global image of
    a window edge in the instance around it -- where a rounding slip in
    the bisect key would drop or add a window.  Explicit examples pass
    no ``data`` and keep ``position``."""
    if data is None or not data.draw(st.booleans(), label="snap"):
        return position
    period = reception.period
    window = data.draw(st.sampled_from(reception.windows), label="window")
    edge = data.draw(st.sampled_from([window.start, window.end]), label="edge")
    instance = to_local(position) // period
    return to_global(instance * period + edge) + data.draw(
        st.integers(-2, 2), label="delta"
    )


@settings(max_examples=400, deadline=None)
@given(
    reception=reception_schedules(),
    clock=clocks,
    start_time=st.one_of(st.just(0), st.integers(1, 100_000)),
    position=positions,
    span=st.integers(0, 20_000),
    data=st.data(),
)
@example(
    # At +200 ppm local 7500 maps to global 7502, yet global 7501 maps
    # back to local 7500: a window ending there still covers 7501.
    reception=ReceptionSchedule([ReceptionWindow(7_000, 500)], 10_000),
    clock=DriftingClock(phase=0, drift_ppm=200),
    start_time=0,
    position=7_501,
    span=1,
    data=None,
)
def test_node_lookup_matches_linear_scan(
    reception, clock, start_time, position, span, data
):
    sim = Simulator()
    node = Node(
        "rx",
        NDProtocol(beacons=None, reception=reception),
        sim,
        Channel(),
        clock=clock,
        start_time=start_time,
    )

    def to_global(local):
        return start_time + clock.to_global(local)

    def to_local(global_time):
        return clock.to_local(global_time - start_time)

    lo = near_window_edge(data, reception, to_global, to_local, position)
    for hi in (lo + span, lo + 1):
        assert node._window_segments(lo, hi) == linear_window_segments(
            reception, to_global, to_local, lo, hi
        )


@settings(max_examples=400, deadline=None)
@given(
    reception=st.one_of(
        reception_schedules(),
        reception_schedules(unit=0.1),
        reception_schedules(unit=0.25),
    ),
    rx_phase=st.integers(-50_000, 50_000),
    position=st.one_of(
        positions,
        st.integers(-200_000, 2_000_000).map(lambda tenths: tenths / 10),
    ),
    span=st.integers(0, 20_000),
    data=st.data(),
)
@example(
    # A float packet start where ``lo - base`` rounds onto the window
    # end although ``base + end`` lies past ``lo``.
    reception=ReceptionSchedule(
        [ReceptionWindow(272.1914373230634, 811.7085626769367)], 1401.0
    ),
    rx_phase=414,
    position=96.9,
    span=1,
    data=None,
)
def test_analytic_lookup_matches_linear_scan(
    reception, rx_phase, position, span, data
):
    lo = near_window_edge(
        data,
        reception,
        lambda local: rx_phase + local,
        lambda global_time: global_time - rx_phase,
        position,
    )
    for hi in (lo + span, lo + 1):
        assert _window_segments(reception, rx_phase, lo, hi) == (
            linear_analytic_segments(reception, rx_phase, lo, hi)
        )


def subtract_blocks(segments, blocks):
    """``segments`` minus every half-open ``(lo, hi)`` block."""
    for block_lo, block_hi in blocks:
        cut = []
        for seg_lo, seg_hi in segments:
            if block_hi <= seg_lo or block_lo >= seg_hi:
                cut.append((seg_lo, seg_hi))
                continue
            if seg_lo < block_lo:
                cut.append((seg_lo, block_lo))
            if block_hi < seg_hi:
                cut.append((block_hi, seg_hi))
        segments = cut
    return segments


@st.composite
def beacon_schedules(draw, unit=1):
    """1-4 sorted, non-overlapping beacons on a grid of ``unit``; the
    period may be short enough for the last beacon to straddle into the
    next instance, so turnaround-guarded blocks of an earlier instance
    reach far past its end.  Float grids keep a tick of slack between
    beacons and at the straddle so rounding cannot make them collide."""
    slack = 0 if unit == 1 else 1
    n = draw(st.integers(1, 4))
    beacons = []
    cursor = draw(st.integers(0, 100))
    for _ in range(n):
        duration = draw(st.integers(1, 60))
        beacons.append((cursor, duration))
        cursor += duration + draw(st.integers(slack, 100))
    first = beacons[0][0]
    last_time, last_duration = beacons[-1]
    shortest = max(last_time + 1, last_time + last_duration - first + slack)
    period = draw(st.integers(shortest, last_time + last_duration + 200))
    return BeaconSchedule(
        [Beacon(time * unit, duration * unit) for time, duration in beacons],
        period * unit,
    )


turnarounds = st.sampled_from([0, 5, 50])


def near_edge(data, edges, position):
    """``position`` (always, for explicit examples, which pass no
    ``data``), or usually within one tick of one of ``edges``."""
    if data is None or not edges:
        return position
    snap = data.draw(st.sampled_from([False, True, True]), label="snap")
    if not snap:
        return position
    return data.draw(st.sampled_from(edges), label="edge") + data.draw(
        st.sampled_from([0, 0, -1, 1]), label="delta"
    )


@settings(max_examples=400, deadline=None)
@given(
    reception=st.one_of(
        reception_schedules(),
        reception_schedules(unit=0.1),
        reception_schedules(unit=0.25),
    ),
    clock=clocks,
    start_time=st.one_of(st.just(0), st.integers(1, 100_000)),
    position=st.one_of(st.integers(0, 200_000), st.integers(10**8, 10**10)),
    transmissions=st.lists(
        st.tuples(st.integers(-3_000, 200), st.integers(1, 400)), max_size=8
    ),
    turnaround=turnarounds,
    data=st.data(),
)
@example(
    # Inside the first window: the walk must start at instance 0.
    reception=ReceptionSchedule([ReceptionWindow(0, 100)], 200),
    clock=IdealClock(phase=0),
    start_time=0,
    position=50,
    transmissions=[],
    turnaround=0,
    data=None,
)
@example(
    # A packet starting where an own transmission's block [15, 50) ends.
    reception=ReceptionSchedule([ReceptionWindow(0, 100)], 200),
    clock=IdealClock(phase=0),
    start_time=0,
    position=50,
    transmissions=[(-30, 25)],
    turnaround=5,
    data=None,
)
@example(
    # ... and one tick before, still inside the block.
    reception=ReceptionSchedule([ReceptionWindow(0, 100)], 200),
    clock=IdealClock(phase=0),
    start_time=0,
    position=49,
    transmissions=[(-29, 25)],
    turnaround=5,
    data=None,
)
def test_node_point_decode_matches_linear_scan(
    reception, clock, start_time, position, transmissions, turnaround, data
):
    """``Node.is_listening_at`` against windows minus own-TX blocks."""
    sim = Simulator()
    node = Node(
        "rx",
        NDProtocol(beacons=None, reception=reception),
        sim,
        Channel(),
        clock=clock,
        start_time=start_time,
        turnaround=turnaround,
    )

    def to_global(local):
        return start_time + clock.to_global(local)

    def to_local(global_time):
        return clock.to_local(global_time - start_time)

    sends = sorted(
        (max(0, position + delta), duration)
        for delta, duration in transmissions
    )
    for send, duration in sends:
        node.schedule_response_tx(duration, at=send)
    sim.run_until(sends[-1][0] if sends else 0)
    blocks = [
        (send - turnaround, send + duration + turnaround)
        for send, duration in sends
    ]
    time = near_window_edge(data, reception, to_global, to_local, position)
    time = near_edge(data, [edge for block in blocks for edge in block], time)
    if start_time > 0 and time < start_time:
        expected = False
    else:
        segments = linear_window_segments(
            reception, to_global, to_local, time, time + 1
        )
        expected = any(
            lo <= time < hi for lo, hi in subtract_blocks(segments, blocks)
        )
    assert node.is_listening_at(time) == expected


def linear_own_blocks(beacons, rx_phase, lo, hi, turnaround):
    """Every own-TX block of every instance near ``[lo, hi)``, with the
    analytic path's arithmetic; beacons sent before time 0 never were."""
    period = beacons.period
    first = int((lo - rx_phase - turnaround) // period) - 3
    last = int((hi + turnaround - rx_phase) // period) + 1
    blocks = []
    for instance in range(first, last + 1):
        base = rx_phase + instance * period
        for b in beacons.beacons:
            tx_start = base + b.time
            if tx_start >= 0:
                blocks.append(
                    (tx_start - turnaround, base + b.end + turnaround)
                )
    return blocks


@st.composite
def receivers(draw):
    """A receiving protocol on an integer or float grid, transmitting
    its own beacons three times in four."""
    unit = draw(st.sampled_from([1, 1, 0.1, 0.25]))
    reception = draw(reception_schedules(unit=unit))
    transmits = draw(st.sampled_from([True, True, True, False]))
    beacons = draw(beacon_schedules(unit=unit)) if transmits else None
    return NDProtocol(beacons=beacons, reception=reception)


#: One window over [0, 100) of every 200 and own beacons [10, 30) and
#: [50, 70): a packet starting where the first block ends is heard.
_BLOCK_END = NDProtocol(
    beacons=BeaconSchedule([Beacon(10, 20), Beacon(50, 20)], 200),
    reception=ReceptionSchedule([ReceptionWindow(0, 100)], 200),
)
#: The last own beacon [80, 110) straddles its period of 100: at 205
#: only the block of the instance starting at 100 covers the packet.
_STRADDLE = NDProtocol(
    beacons=BeaconSchedule([Beacon(10, 20), Beacon(80, 30)], 100),
    reception=ReceptionSchedule([ReceptionWindow(0, 300)], 400),
)


@settings(max_examples=400, deadline=None)
@given(
    receiver=receivers(),
    rx_phase=st.integers(-50_000, 50_000),
    position=st.one_of(
        positions,
        st.integers(-200_000, 2_000_000).map(lambda tenths: tenths / 10),
    ),
    turnaround=turnarounds,
    data=st.data(),
)
@example(receiver=_BLOCK_END, rx_phase=0, position=30, turnaround=0, data=None)
@example(receiver=_BLOCK_END, rx_phase=0, position=29, turnaround=0, data=None)
@example(receiver=_BLOCK_END, rx_phase=0, position=35, turnaround=5, data=None)
@example(receiver=_STRADDLE, rx_phase=0, position=205, turnaround=0, data=None)
def test_analytic_point_decode_matches_linear_scan(
    receiver, rx_phase, position, turnaround, data
):
    """``packet_heard(..., POINT)``: the listening set meets
    ``[start, start + 1)`` (on the integer grid: contains ``start``)."""
    reception, beacons = receiver.reception, receiver.beacons
    start = near_window_edge(
        data,
        reception,
        lambda local: rx_phase + local,
        lambda global_time: global_time - rx_phase,
        position,
    )
    if beacons is not None:
        edges = [
            edge
            for block in linear_own_blocks(
                beacons, rx_phase, start, start + 1, turnaround
            )
            for edge in block
        ]
        start = near_edge(data, edges, start)
    segments = linear_analytic_segments(reception, rx_phase, start, start + 1)
    if beacons is not None:
        segments = subtract_blocks(
            segments,
            linear_own_blocks(beacons, rx_phase, start, start + 1, turnaround),
        )
    assert packet_heard(
        receiver, rx_phase, start, start + 1, ReceptionModel.POINT, turnaround
    ) == bool(segments)


@settings(max_examples=300, deadline=None)
@given(
    receiver=receivers(),
    rx_phase=st.integers(-50_000, 50_000),
    position=st.one_of(
        positions,
        st.integers(-200_000, 2_000_000).map(lambda tenths: tenths / 10),
    ),
    instances=st.integers(0, 20),
    extra=st.integers(0, 500),
    turnaround=st.sampled_from([0, 5, 50, 300]),
)
@example(
    receiver=_BLOCK_END, rx_phase=0, position=0, instances=2, extra=0,
    turnaround=0,
)
@example(
    receiver=_BLOCK_END, rx_phase=0, position=-150, instances=1, extra=70,
    turnaround=5,
)
@example(
    receiver=_STRADDLE, rx_phase=0, position=0, instances=3, extra=0,
    turnaround=0,
)
@example(
    receiver=_STRADDLE, rx_phase=-250, position=30, instances=2, extra=7,
    turnaround=50,
)
def test_listening_segments_match_linear_scan(
    receiver, rx_phase, position, instances, extra, turnaround
):
    """Same segments in the same order: unmerged, abutting windows kept
    distinct, cut by the union of the blocks meeting each one."""
    reception, beacons = receiver.reception, receiver.beacons
    lo = position
    hi = lo + instances * reception.period + extra
    expected = linear_analytic_segments(reception, rx_phase, lo, hi)
    if beacons is not None:
        expected = subtract_blocks(
            expected, linear_own_blocks(beacons, rx_phase, lo, hi, turnaround)
        )
    assert listening_segments(receiver, rx_phase, lo, hi, turnaround) == (
        expected
    )
