"""Property test: the periodic stop of a DES pair replay changes nothing.

With ideal clocks, no advertising jitter and integer schedules,
:func:`repro.simulation.simulate_pair` ends a replay one joint
hyperperiod ``H_j`` past the boot transient, where a direction that has
not discovered never will.  Each case here is replayed twice: by
``simulate_pair`` and by a test-local copy of it, built with
``runner._make_pair``, that stops only when every direction has
discovered or the horizon is reached.  Hypothesis draws pairs of the
``tests/test_property_des_vs_analytic.py`` shapes with commensurate
periods (so horizons of 4-8 joint hyperperiods stay short), offsets
that are negative or at least ``H_j``, all three reception models and
turnaround {0, 5, 50}:

* integer pairs must give the full replay's outcome in no more events;
* drifting, jittered and float-schedule pairs must take no stop at
  all: the same outcome in exactly the same number of events.

Random draws rarely put a first decode within a few packet lengths of
the stop, so pinned cases add one whose first heard packet straddles
the end of ``H_j``.
"""

import math
from contextlib import contextmanager
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.sequences import (  # noqa: E402
    Beacon,
    BeaconSchedule,
    NDProtocol,
    ReceptionSchedule,
    ReceptionWindow,
)
from repro.simulation import (  # noqa: E402
    DiscoveryOutcome,
    ReceptionModel,
    simulate_pair,
)
from repro.simulation import runner  # noqa: E402
from repro.simulation.channel import Channel  # noqa: E402
from repro.simulation.engine import Simulator  # noqa: E402
from tests.test_property_des_vs_analytic import (  # noqa: E402
    commensurate_pairs,
)


def full_replay(
    protocol_e, protocol_f, offset, horizon, model, turnaround,
    drift_ppm_e=0, drift_ppm_f=0, advertising_jitter=0,
):
    """``simulate_pair`` without the periodic stop: the same nodes, the
    same stop once every direction has discovered, else the horizon.
    Returns the outcome and the events processed."""
    pending = (
        (protocol_e.beacons is not None and protocol_f.reception is not None)
        + (protocol_f.beacons is not None and protocol_e.reception is not None)
    )
    if not pending:
        return DiscoveryOutcome(offset, None, None), 0
    sim = Simulator()
    node_e, node_f = runner._make_pair(
        protocol_e, protocol_f, offset, sim, Channel(), model, turnaround,
        drift_ppm_e, drift_ppm_f, advertising_jitter, 0,
    )

    def count_down(me, peer, time):
        nonlocal pending
        pending -= 1
        if not pending:
            sim.stop()

    node_e.on_discovery = node_f.on_discovery = count_down
    node_e.activate()
    node_f.activate()
    sim.run_until(horizon + turnaround + 1)
    outcome = DiscoveryOutcome(
        offset,
        node_f.discoveries.get("E"),
        node_e.discoveries.get("F"),
    )
    return outcome, sim.events_processed


@contextmanager
def counted_replays():
    """Collect the simulators ``simulate_pair`` builds."""
    sims = []

    class CountingSimulator(Simulator):
        def __init__(self):
            super().__init__()
            sims.append(self)

    with mock.patch.object(runner, "Simulator", CountingSimulator):
        yield sims


def events_of(sims) -> int:
    assert len(sims) <= 1
    return sims[0].events_processed if sims else 0


@st.composite
def periodic_cases(draw):
    protocol_e, protocol_f = draw(commensurate_pairs())
    hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
    offset = draw(
        st.one_of(st.integers(-3 * hyper, -1), st.integers(hyper, 3 * hyper))
    )
    horizon = draw(st.integers(4, 8)) * hyper + draw(st.integers(0, hyper))
    return protocol_e, protocol_f, offset, horizon


@given(
    case=periodic_cases(),
    model=st.sampled_from(ReceptionModel),
    turnaround=st.sampled_from([0, 5, 50]),
)
@settings(max_examples=200, deadline=None)
def test_periodic_stop_equals_full_replay(case, model, turnaround):
    protocol_e, protocol_f, offset, horizon = case
    expected, full_events = full_replay(
        protocol_e, protocol_f, offset, horizon, model, turnaround
    )
    with counted_replays() as sims:
        outcome = simulate_pair(
            protocol_e, protocol_f, offset, horizon, model, turnaround
        )
    assert outcome == expected
    assert events_of(sims) <= full_events


@pytest.mark.parametrize("offset", [-290, 10, 610])
@pytest.mark.parametrize("turnaround", [0, 5, 50])
@pytest.mark.parametrize("model", list(ReceptionModel))
def test_stop_keeps_a_first_decode_at_the_hyperperiod_end(
    model, turnaround, offset
):
    """E's first heard packet, ``[295, 305)``, straddles the end of the
    joint hyperperiod (300), so it is decided past it: a stop at
    ``H_j`` alone would lose the discovery."""
    sender = NDProtocol(
        beacons=BeaconSchedule([Beacon(95, 10)], 100), reception=None
    )
    receiver = NDProtocol(
        beacons=BeaconSchedule([Beacon(100, 10)], 300),
        reception=ReceptionSchedule([ReceptionWindow(280, 20)], 300),
    )
    expected, full_events = full_replay(
        sender, receiver, offset, 1_500, model, turnaround
    )
    assert expected.e_discovered_by_f == 295
    with counted_replays() as sims:
        outcome = simulate_pair(
            sender, receiver, offset, 1_500, model, turnaround
        )
    assert outcome == expected
    assert events_of(sims) == full_events


def _float_period(protocol):
    """The protocol with its beacon period off the integer grid."""
    beacons = protocol.beacons
    return NDProtocol(
        beacons=BeaconSchedule(beacons.beacons, beacons.period + 0.5),
        reception=protocol.reception,
    )


@given(
    case=periodic_cases(),
    model=st.sampled_from(ReceptionModel),
    turnaround=st.sampled_from([0, 5, 50]),
    knob=st.sampled_from(["drift_e", "drift_f", "jitter", "float"]),
    amount=st.integers(1, 40),
)
@settings(max_examples=120, deadline=None)
def test_no_stop_without_a_periodic_replay(
    case, model, turnaround, knob, amount
):
    protocol_e, protocol_f, offset, horizon = case
    fidelity = {}
    if knob == "drift_e":
        fidelity["drift_ppm_e"] = amount * 25
    elif knob == "drift_f":
        fidelity["drift_ppm_f"] = amount * 25
    elif knob == "jitter":
        fidelity["advertising_jitter"] = amount
    elif protocol_e.beacons is not None:
        protocol_e = _float_period(protocol_e)
    elif protocol_f.beacons is not None:
        protocol_f = _float_period(protocol_f)
    expected, full_events = full_replay(
        protocol_e, protocol_f, offset, horizon, model, turnaround,
        **fidelity,
    )
    with counted_replays() as sims:
        outcome = simulate_pair(
            protocol_e, protocol_f, offset, horizon, model, turnaround,
            **fidelity,
        )
    assert outcome == expected
    assert events_of(sims) == full_events
