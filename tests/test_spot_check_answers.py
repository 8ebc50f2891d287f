"""The des tier checks the answer the worst-case engine reports.

Each DES spot-check replay is compared with the sweep kernel's own
outcome at that offset, read from the per-offset outcomes the sweep's
report was reduced from:

* the offset selection hands back each chosen offset's first position
  in the swept offsets, with the exact draws of the former value-only
  selection (pinned against a test-local copy of it);
* a kernel that misreports one direction at the sweep's worst offset
  makes ``des_agrees`` false;
* on the ``python`` and ``numpy`` kernels and on a ``jobs=2``
  executor, the outcomes the engine reads equal
  ``evaluate_offsets_batch`` at the same offsets.
"""

import dataclasses
import random

import pytest

from repro.backends import (
    available_backends,
    PythonBackend,
    SweepParams,
)
from repro.core.optimal import synthesize_symmetric
from repro.parallel import ParallelSweep
from repro.simulation import (
    critical_offsets,
    ReceptionModel,
    summarize_outcomes,
    verified_worst_case,
)
from repro.simulation.runner import (
    _select_spot_check_offsets,
    _verified_worst_case_impl,
)
from tests.test_parallel_equivalence_zoo import ZOO


def legacy_select(offsets, required, count, rng_seed=1234):
    """The value-only selection the engine used before it needed
    positions, verbatim."""
    unique = list(dict.fromkeys(offsets))
    chosen = dict.fromkeys(offset for offset in required if offset is not None)
    target = min(count, len(unique))
    remaining = [offset for offset in unique if offset not in chosen]
    need = target - len(chosen)
    if need > 0:
        rng = random.Random(rng_seed)
        chosen.update(
            dict.fromkeys(rng.sample(remaining, min(need, len(remaining))))
        )
    return sorted(chosen)


def _cases():
    """Seeded offset lists: unique, duplicate-heavy and tiny; required
    worst offsets inside, outside, repeated and ``None``; counts below,
    at and above the unique size (both of ``random.sample``'s
    branches: small pools are copied, large ones drawn into a set)."""
    rng = random.Random(24)
    for case in range(300):
        size = rng.choice([0, 1, 2, 5, 30, 200, 1500])
        spread = rng.choice([1, 3, max(1, size // 4), 10 * size + 1])
        offsets = [rng.randrange(-spread, spread + 1) for _ in range(size)]
        if case % 3 == 0:
            offsets = list(dict.fromkeys(offsets))
        pool = offsets + [None, None, 10 * spread + 7]
        required = tuple(rng.choice(pool) for _ in range(rng.randrange(3)))
        unique = len(set(offsets))
        count = rng.choice([0, 1, 2, 16, unique, unique + 3, 40])
        yield offsets, required, count


def test_selection_matches_the_value_only_selection():
    for offsets, required, count in _cases():
        checked, positions = _select_spot_check_offsets(
            offsets, required, count
        )
        assert checked == legacy_select(offsets, required, count)
        assert positions == [
            offsets.index(offset) if offset in offsets else None
            for offset in checked
        ]


@pytest.mark.parametrize(
    "offsets, required, count, expected",
    [
        ([7] * 30 + [9], (), 16, ([7, 9], [0, 30])),
        ([5, 5, 3, 3, 1], (None, 3), 1, ([3], [2])),
        ([4, 2, 4, 2], (None, None), 10, ([2, 4], [1, 0])),
        ([1, 2, 3], (8,), 1, ([8], [None])),
        ([], (None,), 16, ([], [])),
    ],
)
def test_selection_literals(offsets, required, count, expected):
    assert _select_spot_check_offsets(offsets, required, count) == expected


class MisreportingKernel(PythonBackend):
    """The python kernel, reporting one direction one tick late at one
    offset.  Unregistered, so every sweep stays in-process."""

    name = "misreporting"

    def __init__(self, offset: int) -> None:
        self.offset = offset

    def evaluate_offsets_batch(self, params, offsets):
        return [
            _one_tick_late(outcome) if outcome.offset == self.offset
            else outcome
            for outcome in super().evaluate_offsets_batch(params, offsets)
        ]


def _one_tick_late(outcome):
    if outcome.e_discovered_by_f is not None:
        return dataclasses.replace(
            outcome, e_discovered_by_f=outcome.e_discovered_by_f + 1
        )
    return dataclasses.replace(
        outcome, f_discovered_by_e=outcome.f_discovered_by_e + 1
    )


@pytest.mark.parametrize("budget_ms", [None, 1e6], ids=["exact", "budgeted"])
def test_a_misreported_worst_offset_disagrees(budget_ms):
    protocol, design = synthesize_symmetric(32, 0.05)
    horizon = 3 * design.worst_case_latency
    honest = verified_worst_case(protocol, protocol, horizon, omega=32)
    assert honest.des_agrees
    worst = honest.analytic.worst_offset_one_way
    # One tick late in one direction never lowers the offset's one-way
    # latency, so it stays the (earliest) worst offset and is replayed.
    outcome = _verified_worst_case_impl(
        protocol, protocol, horizon, omega=32,
        sweeper=ParallelSweep(jobs=1, backend=MisreportingKernel(worst)),
        budget_ms=budget_ms,
    )
    assert outcome.analytic.worst_offset_one_way == worst
    assert outcome.des_agrees is False


SWEEPERS = {
    **{name: {"jobs": 1, "backend": name} for name in available_backends()},
    "jobs=2": {"jobs": 2},
}


@pytest.mark.parametrize("sweeper", list(SWEEPERS))
@pytest.mark.parametrize("family", ["disco", "optimal-slotless", "nihao"])
def test_engine_reads_the_kernel_outcomes(family, sweeper):
    protocol_e, protocol_f = ZOO[family]()
    model = ReceptionModel.ANY_OVERLAP
    turnaround = 5
    hyper = max(protocol_e.hyperperiod(), protocol_f.hyperperiod())
    horizon = 4 * hyper
    offsets = critical_offsets(protocol_e, protocol_f, omega=16)[:600]
    offsets += offsets[::7]  # duplicates read their first position
    executor = ParallelSweep(**SWEEPERS[sweeper])
    report, outcomes = executor.sweep_offsets(
        protocol_e, protocol_f, offsets, horizon, model, turnaround,
        with_outcomes=True,
    )
    expected = executor.evaluate_offsets(
        protocol_e, protocol_f, offsets, horizon, model, turnaround
    )
    assert len(outcomes) == len(offsets)
    assert list(outcomes) == expected
    assert report == summarize_outcomes(expected)
    assert report == executor.sweep_offsets(
        protocol_e, protocol_f, offsets, horizon, model, turnaround
    )
    checked, positions = _select_spot_check_offsets(
        offsets,
        (report.worst_offset_one_way, report.worst_offset_two_way),
        16,
    )
    params = SweepParams(protocol_e, protocol_f, horizon, model, turnaround)
    assert [outcomes[position] for position in positions] == (
        PythonBackend().evaluate_offsets_batch(params, checked)
    )
