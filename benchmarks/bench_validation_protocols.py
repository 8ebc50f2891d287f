"""VAL-PROT -- validation: the protocol zoo meets its published
guarantees and reproduces the paper's ranking in simulation.

Not a paper figure: simulates the lowered microsecond schedules of
Disco, U-Connect, Searchlight-Striped and Diffcodes over uniform offset
grids (excluding the measure-``2 omega / I`` slot-aligned deadlock set;
see EXPERIMENTS.md) and checks every measured worst case against the
protocol's own claim and against the fundamental bounds.
"""

import pytest

from repro.analysis import gap_for_protocol
from repro.protocols import Diffcodes, Disco, Role, Searchlight, UConnect
from repro.simulation import sweep_offsets

OMEGA = 32
SLOT = 2_000
ZOO = [
    ("Disco", Disco(5, 7, slot_length=SLOT, omega=OMEGA)),
    ("U-Connect", UConnect(7, slot_length=SLOT, omega=OMEGA)),
    ("Searchlight-S", Searchlight(8, slot_length=SLOT, omega=OMEGA)),
    ("Diffcodes", Diffcodes(3, slot_length=SLOT, omega=OMEGA)),
]


def measure(protocol, n_offsets=256, sweep=sweep_offsets):
    device_e = protocol.device(Role.E)
    device_f = protocol.device(Role.F)
    period = int(device_e.beacons.period)
    guarantee = int(protocol.predicted_worst_case_latency())
    step = max(1, period // n_offsets)
    offsets = [
        off
        for off in range(0, period, step)
        if 2 * OMEGA <= off % SLOT <= SLOT - 2 * OMEGA
    ]
    return sweep(
        device_e, device_f, offsets, horizon=guarantee * 3
    )


@pytest.mark.benchmark(group="validation")
def test_val_prot_guarantees_and_ranking(benchmark, emit):
    def run():
        return [(name, proto, measure(proto)) for name, proto in ZOO]

    results = benchmark(run)
    rows = []
    for name, proto, report in results:
        claim = proto.predicted_worst_case_latency()
        # The Definition-3.4 convention measures from range entry, which
        # precedes the first beacon by up to one beacon gap.
        full_latency = report.worst_one_way + proto.device(Role.E).beacons.max_gap
        gap = gap_for_protocol(
            proto, omega=OMEGA, measured_latency=full_latency
        )
        rows.append([
            name,
            proto.duty_cycle(),
            claim / 1e3,
            report.worst_one_way / 1e3,
            report.failures,
            gap.ratio_constrained,
        ])
    emit(
        "VAL-PROT",
        f"Protocol zoo, slot length {SLOT} us (latencies in ms)",
        [
            "protocol", "eta", "claimed worst [ms]", "measured worst [ms]",
            "failures", "x util-bound",
        ],
        rows,
    )

    measured = {}
    for name, proto, report in results:
        assert report.failures == 0, name
        # Published guarantee holds (plus one slot of range-entry slack).
        assert report.worst_one_way <= proto.predicted_worst_case_latency() + SLOT
        measured[name] = report.worst_one_way

    # The paper's headline classification: difference-set schedules are
    # the tightest slotted design -- at *higher* duty-cycle efficiency
    # than every other zoo member.  (Cross-protocol latency order between
    # Disco/Searchlight/U-Connect depends on the exact parameter scales,
    # which are not commensurable at small primes; Table 1's constants
    # are asserted in bench_table1_slotted.py on equalized budgets.)
    assert measured["Diffcodes"] < measured["U-Connect"]
    assert measured["Diffcodes"] < measured["Disco"]
    assert measured["Diffcodes"] < measured["Searchlight-S"]
