"""ABL-SLOT -- ablation: the slot-length effect of Figure 5.

Slotted protocols can only approach their nominal guarantee when the
slot length ``I`` dwarfs the packet duration ``omega``:

* analytically, the fraction of overlapping-slot alignments that yield a
  reception is ``max(I - 2 omega, 0) / I`` for a half-duplex radio, and
  at fixed slot duty-cycle the worst-case *time* scales linearly in
  ``I`` -- the tension Section 6.1.1 resolves with ``I = omega`` only
  for hypothetical full-duplex radios;
* empirically, sweeping phase offsets of a Searchlight pair shows the
  deadlocked (never-discovering) offset fraction growing as the slot
  shrinks toward ``2 omega``.
"""

import pytest

from repro.core.slotted_bounds import slot_length_analysis
from repro.protocols import Role, Searchlight
from repro.simulation import sweep_offsets

OMEGA = 32
RATIOS = [2, 3, 4, 8, 16, 64, 256]
SIM_SLOTS = [96, 160, 320, 1_280]  # I = 3, 5, 10, 40 omega


def analytic_rows():
    return [
        [
            r,
            slot_length_analysis(float(r)).overlap_success_fraction,
            slot_length_analysis(float(r)).latency_penalty,
        ]
        for r in RATIOS
    ]


def empirical_failure_fraction(slot_length, n_offsets=400, sweep=sweep_offsets):
    proto = Searchlight(8, slot_length=slot_length, omega=OMEGA)
    device_e, device_f = proto.device(Role.E), proto.device(Role.F)
    period = int(device_e.beacons.period)
    step = max(1, period // n_offsets)
    report = sweep(
        device_e,
        device_f,
        range(0, period, step),
        horizon=int(proto.predicted_worst_case_latency() * 3),
    )
    return report.failures / report.offsets_evaluated


@pytest.mark.benchmark(group="ablation")
def test_abl_slot_analytic(benchmark, emit):
    rows = benchmark(analytic_rows)
    emit(
        "ABL-SLOT-analytic",
        "Figure-5 geometry: success fraction and latency penalty vs I/omega",
        ["I/omega", "success fraction", "latency penalty"],
        rows,
    )
    fractions = [row[1] for row in rows]
    assert fractions[0] == 0.0  # I = 2 omega: nothing gets through
    assert fractions == sorted(fractions)
    assert fractions[-1] > 0.99


@pytest.mark.benchmark(group="ablation")
def test_abl_slot_empirical(benchmark, emit):
    def run():
        return [
            [slot, slot / OMEGA, empirical_failure_fraction(slot)]
            for slot in SIM_SLOTS
        ]

    rows = benchmark(run)
    emit(
        "ABL-SLOT-empirical",
        "Searchlight pair: deadlocked offset fraction vs slot length",
        ["slot [us]", "I/omega", "failure fraction"],
        rows,
    )
    fractions = [row[2] for row in rows]
    # Small slots strand an order of magnitude more offsets than large
    # ones (the trend is not strictly monotone at I ~ 3 omega, where the
    # residual window is a sliver and number-theoretic accidents of the
    # offset grid dominate).
    assert max(fractions[:2]) > 5 * fractions[-1]
    assert fractions[-1] < 0.01  # I = 40 omega: only the aligned sliver
