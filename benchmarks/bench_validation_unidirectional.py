"""VAL-UNI -- validation: synthesized unidirectional schedules attain
Theorem 5.4 in exact simulation.

Not a paper figure: the empirical closure of the theory.  For a grid of
(gamma, beta) budgets, synthesize the optimal schedule, sweep every
critical phase offset exactly, and compare the measured worst case
against the bound at the achieved duty-cycles.  The measured worst
packet-to-packet latency must equal ``L - lambda`` (the remaining gap is
the range-entry slack of Definition 3.4) with zero failures.
"""

import pytest

from repro.core.bounds import unidirectional_bound
from repro.core.optimal import synthesize_unidirectional
from repro.core.sequences import NDProtocol
from repro.simulation import critical_offsets, sweep_offsets

OMEGA = 32
CONFIGS = [
    # (window, k, stride)
    (320, 10, 11),
    (100, 7, 8),
    (64, 5, 7),
    (500, 4, 9),
    (64, 16, 33),
    (200, 20, 21),
]


def validate(window, k, stride, sweep=sweep_offsets):
    design = synthesize_unidirectional(OMEGA, window, k, stride)
    adv = NDProtocol(beacons=design.beacons, reception=None)
    scan = NDProtocol(beacons=None, reception=design.reception)
    offsets = critical_offsets(adv, scan, omega=OMEGA)
    report = sweep(
        adv, scan, offsets, horizon=design.worst_case_latency * 2 + 1
    )
    return design, report


@pytest.mark.benchmark(group="validation")
def test_val_uni_bound_attained(benchmark, emit):
    def run_all():
        return [validate(*config) for config in CONFIGS]

    results = benchmark(run_all)
    rows = []
    for (window, k, stride), (design, report) in zip(CONFIGS, results):
        bound = unidirectional_bound(OMEGA, design.beta, design.gamma)
        measured_full = report.worst_one_way + design.beacons.period
        rows.append([
            f"d={window},k={k},n={stride}",
            design.beta,
            design.gamma,
            bound / 1e6,
            measured_full / 1e6,
            report.failures,
            report.offsets_evaluated,
        ])
    emit(
        "VAL-UNI",
        "Theorem 5.4 vs exact offset sweeps (measured includes the "
        "range-entry gap)",
        [
            "design", "beta", "gamma", "bound [s]", "measured worst [s]",
            "failures", "offsets",
        ],
        rows,
    )

    for (window, k, stride), (design, report) in zip(CONFIGS, results):
        assert report.failures == 0
        bound = unidirectional_bound(OMEGA, design.beta, design.gamma)
        measured_full = report.worst_one_way + design.beacons.period
        # Exact attainment: measured == bound to the microsecond.
        assert measured_full == pytest.approx(bound)
