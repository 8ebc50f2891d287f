"""Property test: a node's first beacon does not depend on how the
cursor gets there.

For an ideal clock without advertising jitter, :meth:`Node.activate`
moves the beacon cursor straight to the first beacon at or after the
current time (a ``divmod`` plus a bisect over the beacon times).  Here
random integer schedules and phases -- negative, 0, with a beacon
exactly at the activation time, multiples of the period and beyond the
hyperperiod -- are activated at time 0 and at a later time, with a
start time of 0 or below, and the pushed beacon (time, duration,
schedule instance, beacon index) must be the one a linear skip from
two periods back reaches.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.sequences import (  # noqa: E402
    Beacon,
    BeaconSchedule,
    NDProtocol,
)
from repro.simulation.channel import Channel  # noqa: E402
from repro.simulation.clock import IdealClock  # noqa: E402
from repro.simulation.engine import Simulator  # noqa: E402
from repro.simulation.node import Node  # noqa: E402


@st.composite
def schedules(draw):
    """Sorted, non-overlapping integer beacons inside one period."""
    count = draw(st.integers(1, 6))
    times, duration, time = [], draw(st.integers(1, 20)), 0
    for _ in range(count):
        time += draw(st.integers(0 if not times else duration, 60))
        times.append(time)
    period = times[-1] + duration + draw(st.integers(0, 80))
    return BeaconSchedule([Beacon(t, duration) for t in times], period)


@st.composite
def cases(draw):
    schedule = draw(schedules())
    period = schedule.period
    now = draw(st.sampled_from([0, draw(st.integers(1, 5 * period))]))
    start_time = draw(st.sampled_from([0, draw(st.integers(-3 * period, -1))]))
    on_beacon = draw(st.sampled_from(schedule.beacons)).time
    # Phases putting a beacon exactly at ``now``, on a period boundary,
    # negative, zero, and beyond the hyperperiod.
    instance = draw(st.integers(-4, 4))
    phase = draw(st.sampled_from([
        now - start_time - instance * period - on_beacon,
        instance * period,
        draw(st.integers(-10 * period, -1)),
        0,
        draw(st.integers(period, 50 * period)),
        draw(st.integers(-10 * period, 10 * period)),
    ]))
    return schedule, now, start_time, phase


def linear_skip(schedule, now, start_time, phase):
    """The first beacon at or after ``now``, reached by stepping the
    cursor from two periods back as :class:`Node` did before its direct
    start: ``(time, duration, instance, index)``."""
    pattern = [(b.time, b.duration) for b in schedule.beacons]
    period = schedule.period
    local_now = now - start_time - phase
    instance = (local_now - period) // period - 1
    index = -1
    while True:
        index += 1
        if index == len(pattern):
            instance += 1
            index = 0
        tau, duration = pattern[index]
        when = start_time + phase + instance * period + tau
        if when >= now:
            return when, duration, instance, index


@given(case=cases())
@settings(max_examples=400, deadline=None)
def test_direct_start_pushes_the_linear_skips_beacon(case):
    schedule, now, start_time, phase = case
    sim = Simulator()
    sim.run_until(now)
    node = Node(
        "E",
        NDProtocol(beacons=schedule, reception=None),
        sim,
        Channel(),
        clock=IdealClock(phase=phase),
        start_time=start_time,
    )
    node.activate()
    when, duration = node._pending
    assert (when, duration, node._instance, node._index) == linear_skip(
        schedule, now, start_time, phase
    )
    assert sim.peek() == when
