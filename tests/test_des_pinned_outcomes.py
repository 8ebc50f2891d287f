"""Pinned event-driven outcomes: values the DES must keep reproducing.

The simulator's calendar fires same-timestamp events in insertion
order, and the order in which a node pushes its beacons decides that
order.  The node module argues that no outcome depends on it; these
literals, recorded before the beacon stream moved to one calendar event
per beacon, check the argument on the runs where ties, collisions,
jitter draws and drift rounding all occur:

* a 12-scenario ``dense_network`` grid (3/6/10 devices, with
  collisions) -- per scenario the directed pairs discovered, the sum of
  their discovery times, a digest of the full ``(receiver, sender) ->
  time`` map, and the channel's transmissions, collisions and packets
  lost to collisions;
* ``simulate_pair`` on a synthesized symmetric pair under all three
  reception models, with +-40 ppm drift, with turnaround 7 and jitter
  300, and with jitter 500 and +20 ppm;
* one ``simulate_pair_mutual_assistance`` run.
"""

import hashlib

import pytest

from repro.core.optimal import synthesize_symmetric
from repro.simulation import ReceptionModel, simulate_pair, sweep_network_grid
from repro.simulation.runner import simulate_pair_mutual_assistance
from repro.workloads import dense_network, scenario_grid

#: Per scenario: (pairs discovered, sum of discovery times, digest of
#: the sorted discovery map, transmissions, collisions, packets lost).
GRID = [
    (6, 988028, "0e110991d77aeab6", 2400, 0, 0),
    (6, 985418, "5637811a84a1a784", 2400, 0, 0),
    (6, 232122, "5edc62640a821835", 960, 0, 0),
    (3, 72534, "556e62c4c8fdb162", 960, 320, 16),
    (30, 4973715, "e75a1b0cd37d73f8", 4800, 0, 0),
    (30, 4935430, "b079fd4f12ce1922", 4800, 0, 0),
    (30, 994500, "b5b7e49ec443bbac", 1920, 0, 0),
    (16, 277281, "15df016df4955730", 1920, 640, 96),
    (90, 14941980, "8354cf508e1c2533", 8000, 0, 0),
    (90, 14868405, "46ab0f7d056dce1a", 8000, 0, 0),
    (73, 2004766, "562d79c2e6f861eb", 3200, 320, 128),
    (54, 1351893, "872452c00be44feb", 3200, 1280, 256),
]

OFFSETS = (0, 1, 997, 12_345, 44_444)
PAIR_KNOBS = {
    "drift40": dict(drift_ppm_e=40, drift_ppm_f=-40),
    "turn7-jitter300": dict(turnaround=7, advertising_jitter=300, seed=3),
    "jitter500-ppm20": dict(advertising_jitter=500, drift_ppm_f=20, seed=5),
}
#: ``(e_discovered_by_f, f_discovered_by_e)`` per offset in OFFSETS.
PAIRS = {
    ("drift40", "point"): [
        (None, 22439), (None, 22440), (33001, 43235), (17161, 17625),
        (31681, 35204),
    ],
    ("drift40", "any-overlap"): [
        (52802, 22439), (52802, 1), (33001, 20796), (17161, 17625),
        (9240, 35204),
    ],
    ("drift40", "containment"): [
        (None, None), (None, None), (33001, None), (None, None),
        (114845, 35204),
    ],
    ("turn7-jitter300", "point"): [
        (3209, 56029), (3209, 4824), (9019, 134404), (34780, 14439),
        (6045, 49637),
    ],
    ("turn7-jitter300", "any-overlap"): [
        (3209, 56029), (3209, 4824), (9019, 134404), (34780, 14439),
        (6045, 36777),
    ],
    ("turn7-jitter300", "containment"): [
        (32008, 121600), (3209, None), (64997, 134404), (None, 112004),
        (6045, None),
    ],
    ("jitter500-ppm20", "point"): [
        (38405, 88012), (38405, 112030), (15425, 56018), (57156, 11206),
        (92476, None),
    ],
    ("jitter500-ppm20", "any-overlap"): [
        (38405, 88012), (38405, 112030), (5795, 56018), (45938, 6375),
        (92476, 62372),
    ],
    ("jitter500-ppm20", "containment"): [
        (38405, None), (38405, None), (49002, None), (None, 11206),
        (None, None),
    ],
}


def test_dense_network_grid_is_pinned():
    grid = scenario_grid(
        dense_network, n_devices=[3, 6, 10], eta=[0.02, 0.05], seed=[0, 1]
    )
    rows = []
    for result in sweep_network_grid(grid):
        items = sorted(result.discovery_times.items())
        rows.append(
            (
                len(items),
                sum(result.discovery_times.values()),
                hashlib.sha256(repr(items).encode()).hexdigest()[:16],
                result.total_transmissions,
                result.total_collisions,
                result.packets_lost_to_collisions,
            )
        )
    assert rows == GRID


@pytest.fixture(scope="module")
def symmetric_pair():
    protocol, design = synthesize_symmetric(omega=32, eta=0.05)
    return protocol, design.worst_case_latency * 3


@pytest.mark.parametrize(
    "model", list(ReceptionModel), ids=[m.value for m in ReceptionModel]
)
@pytest.mark.parametrize("knobs", list(PAIR_KNOBS))
def test_simulate_pair_is_pinned(symmetric_pair, knobs, model):
    protocol, horizon = symmetric_pair
    outcomes = [
        simulate_pair(
            protocol, protocol, offset, horizon, model, **PAIR_KNOBS[knobs]
        )
        for offset in OFFSETS
    ]
    assert [
        (o.e_discovered_by_f, o.f_discovered_by_e) for o in outcomes
    ] == PAIRS[knobs, model.value]


def test_mutual_assistance_is_pinned(symmetric_pair):
    protocol, horizon = symmetric_pair
    outcome = simulate_pair_mutual_assistance(
        protocol, protocol, 12_345, horizon,
        turnaround=7, advertising_jitter=200, seed=4,
    )
    assert (outcome.e_discovered_by_f, outcome.f_discovered_by_e) == (
        33162, 8031,
    )
