"""Property test: the two simulation engines are bit-compatible.

The analytic pair computation and the event-driven simulator implement
the same semantics through entirely different mechanisms (closed-form
modular arithmetic vs an event calendar).  Hypothesis generates random
schedules, offsets, reception models and turnaround guards; any
divergence in the per-direction discovery times is a bug in one of the
engines.  This is the strongest internal-consistency check in the suite.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequences import (
    Beacon,
    BeaconSchedule,
    NDProtocol,
    ReceptionSchedule,
    ReceptionWindow,
)
from repro.simulation import (
    mutual_discovery_times,
    ReceptionModel,
    simulate_pair,
)


@st.composite
def beacon_schedules(draw):
    omega = draw(st.integers(1, 60))
    n = draw(st.integers(1, 4))
    gap_min = omega + draw(st.integers(1, 50))
    times = [0]
    for _ in range(n - 1):
        times.append(times[-1] + gap_min + draw(st.integers(0, 400)))
    tail = draw(st.integers(omega + 1, 500))
    period = times[-1] + tail
    return BeaconSchedule([Beacon(t, omega) for t in times], period)


@st.composite
def reception_schedules(draw):
    n = draw(st.integers(1, 3))
    windows = []
    cursor = draw(st.integers(0, 100))
    for _ in range(n):
        duration = draw(st.integers(1, 300))
        windows.append(ReceptionWindow(cursor, duration))
        cursor += duration + draw(st.integers(1, 300))
    period = cursor + draw(st.integers(0, 200))
    return ReceptionSchedule(windows, period)


@st.composite
def protocols(draw):
    has_beacons = draw(st.booleans())
    has_reception = draw(st.booleans()) or not has_beacons
    return NDProtocol(
        beacons=draw(beacon_schedules()) if has_beacons else None,
        reception=draw(reception_schedules()) if has_reception else None,
    )


@st.composite
def commensurate_pairs(draw):
    """Two :func:`protocols` whose every period is stretched to 1, 2 or
    3 times the longest one, so the joint hyperperiod is at most six of
    it: runs over several joint hyperperiods stay short."""
    pair = (draw(protocols()), draw(protocols()))
    base = max(
        schedule.period
        for protocol in pair
        for schedule in (protocol.beacons, protocol.reception)
        if schedule is not None
    )
    factors = st.sampled_from([1, 2, 3])
    return tuple(
        NDProtocol(
            beacons=None if protocol.beacons is None else BeaconSchedule(
                protocol.beacons.beacons, base * draw(factors)
            ),
            reception=None if protocol.reception is None
            else ReceptionSchedule(
                protocol.reception.windows, base * draw(factors)
            ),
        )
        for protocol in pair
    )


@given(
    protocol_e=protocols(),
    protocol_f=protocols(),
    offset=st.integers(0, 5_000),
    model=st.sampled_from(ReceptionModel),
    turnaround=st.sampled_from([0, 5, 50]),
)
@settings(max_examples=150, deadline=None)
def test_des_matches_analytic_on_random_schedules(
    protocol_e, protocol_f, offset, model, turnaround
):
    horizon = 60_000
    analytic = mutual_discovery_times(
        protocol_e, protocol_f, offset, horizon, model, turnaround
    )
    des = simulate_pair(
        protocol_e, protocol_f, offset, horizon, model, turnaround
    )
    assert des.e_discovered_by_f == analytic.e_discovered_by_f, (
        f"E->F mismatch: analytic={analytic.e_discovered_by_f} "
        f"des={des.e_discovered_by_f}"
    )
    assert des.f_discovered_by_e == analytic.f_discovered_by_e, (
        f"F->E mismatch: analytic={analytic.f_discovered_by_e} "
        f"des={des.f_discovered_by_e}"
    )


@pytest.mark.parametrize("turnaround", [0, 3])
@pytest.mark.parametrize("model", list(ReceptionModel))
@pytest.mark.parametrize("window", [4, 4990])
def test_long_packet_over_a_dense_own_beacon_train(window, model, turnaround):
    """One 2000 us packet spans 100 of the receiver's own beacons.

    The DES keeps every own-TX block a pending decode can still read, so
    the block covering the packet's first microseconds survives the 99
    transmissions after it.  POINT and ANY_OVERLAP would hear the packet
    if that block were dropped; CONTAINMENT is checked too, though no
    dropped block can flip it (the newest blocks inside the packet span
    survive any trim, and one of them already blocks the packet).
    """
    period = 5_000
    sender = NDProtocol(
        beacons=BeaconSchedule([Beacon(0, 2_000)], period), reception=None
    )
    train = [Beacon(20 * i, 4) for i in range(100)]
    receiver = NDProtocol(
        beacons=BeaconSchedule(train, period),
        reception=ReceptionSchedule([ReceptionWindow(0, window)], period),
    )
    # Offsets 722 and 1441 trim the receiver's blocks while a decode
    # waits out the turnaround.
    for offset in [*range(0, period, 70), 722, 1441]:
        analytic = mutual_discovery_times(
            sender, receiver, offset, 15_000, model, turnaround
        )
        des = simulate_pair(
            sender, receiver, offset, 15_000, model, turnaround
        )
        assert des == analytic, f"offset {offset}"


@given(
    protocol_e=protocols(),
    protocol_f=protocols(),
    offset=st.integers(0, 5_000),
)
@settings(max_examples=60, deadline=None)
def test_one_way_never_slower_than_two_way(protocol_e, protocol_f, offset):
    outcome = mutual_discovery_times(protocol_e, protocol_f, offset, 60_000)
    if outcome.two_way is not None:
        assert outcome.one_way is not None
        assert outcome.one_way <= outcome.two_way


@given(
    protocol_e=protocols(),
    protocol_f=protocols(),
    offset=st.integers(0, 3_000),
)
@settings(max_examples=60, deadline=None)
def test_model_ordering_on_random_schedules(protocol_e, protocol_f, offset):
    """ANY_OVERLAP discovers no later than POINT, POINT no later than
    CONTAINMENT, whenever the stricter model discovers at all."""
    horizon = 60_000
    times = {
        model: mutual_discovery_times(
            protocol_e, protocol_f, offset, horizon, model
        )
        for model in ReceptionModel
    }

    def directed(outcome):
        return (outcome.e_discovered_by_f, outcome.f_discovered_by_e)

    for direction in range(2):
        point = directed(times[ReceptionModel.POINT])[direction]
        any_overlap = directed(times[ReceptionModel.ANY_OVERLAP])[direction]
        containment = directed(times[ReceptionModel.CONTAINMENT])[direction]
        if point is not None:
            assert any_overlap is not None and any_overlap <= point
        if containment is not None:
            assert point is not None and point <= containment
