"""Property test: the numpy sweep kernel equals the reference on random schedules.

The equivalence zoo pins ``python`` == ``numpy`` on 13 fixed protocol
families.  This file drives :class:`repro.backends.NumpyBackend` over
random integer schedules (the strategies of
``tests/test_property_des_vs_analytic.py``: up to four beacons, up to
three reception windows, absent directions; a device that both sends
and listens keeps its own two periods, co-prime ones included, whose
hyperperiods near 10**6 give patterns of thousands of segments) and
random offset batches:

* strided batches (positive or negative stride, negative starts);
* scattered batches with duplicates and negatives;
* stride-1 batches around zero, which put every lane's first beacons
  inside its boot region (``ListeningCache.boot_ends``);

with horizons that mostly end mid-instance (some on or just past a
beacon start, where a discovery can land exactly on the horizon), under
all three reception models and turnaround {0, 5, 50}.
``evaluate_offsets_batch`` must equal ``analytic.evaluate_offsets``
outcome for outcome, and ``sweep_outcomes_batch`` must return
``summarize_outcomes`` over them and the same outcomes.

A second property pins dead-lane retirement: on commensurate pairs
(joint hyperperiod at most six periods) with horizons of 4-8 joint
hyperperiods, so every lane passes several residue cycles, and with
offsets around zero and negative, so a chunk's boot ends can all be
negative, the batch split into 2-5 chunks must give the whole batch's
outcomes and the reference's.  Skipped without NumPy or hypothesis.
"""

import math

import pytest

from repro.backends import have_numpy, NumpyBackend, SweepParams
from repro.simulation import ReceptionModel
from repro.simulation.analytic import evaluate_offsets, summarize_outcomes

pytestmark = pytest.mark.skipif(not have_numpy(), reason="needs NumPy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from tests.test_property_des_vs_analytic import (  # noqa: E402
    commensurate_pairs,
    protocols,
)


@st.composite
def strided_batches(draw):
    start = draw(st.integers(-20_000, 20_000))
    stride = draw(st.integers(1, 3_000)) * draw(st.sampled_from([1, -1]))
    return [start + k * stride for k in range(draw(st.integers(1, 40)))]


@st.composite
def scattered_batches(draw):
    offsets = draw(st.lists(st.integers(-50_000, 50_000), min_size=1,
                            max_size=30))
    repeats = draw(st.lists(st.sampled_from(offsets), max_size=8))
    return draw(st.permutations(offsets + repeats))


@st.composite
def boot_batches(draw):
    start = draw(st.integers(-150, 0))
    return list(range(start, start + draw(st.integers(1, 160))))


@st.composite
def horizons(draw, protocol_e, protocol_f, offsets):
    """Mostly any horizon; sometimes a beacon start or the instant after
    it, of E at phase 0 or of F at one of the offsets, so a discovery
    can land on the horizon's last instant or right on it."""
    senders = [
        (schedule, phase)
        for schedule, phase in (
            (protocol_e.beacons, 0),
            (protocol_f.beacons, draw(st.sampled_from(offsets))),
        )
        if schedule is not None
    ]
    if not senders or draw(st.booleans()):
        return draw(st.integers(1, 20_000))
    schedule, phase = draw(st.sampled_from(senders))
    tau = draw(st.sampled_from(schedule.beacons)).time
    instance = draw(st.integers(0, 3))  # before most lanes resolve
    start = phase % schedule.period + instance * schedule.period + tau
    return max(1, start + draw(st.integers(0, 1)))


@st.composite
def sweep_cases(draw, batches):
    protocol_e = draw(protocols())
    protocol_f = draw(protocols())
    offsets = draw(batches)
    horizon = draw(horizons(protocol_e, protocol_f, offsets))
    return protocol_e, protocol_f, offsets, horizon


@pytest.mark.parametrize(
    "batches",
    [strided_batches, scattered_batches, boot_batches],
    ids=["strided", "scattered", "boot"],
)
@given(
    data=st.data(),
    model=st.sampled_from(ReceptionModel),
    turnaround=st.sampled_from([0, 5, 50]),
)
@settings(max_examples=200, deadline=None)
def test_numpy_kernel_matches_reference(batches, data, model, turnaround):
    protocol_e, protocol_f, offsets, horizon = data.draw(
        sweep_cases(batches())
    )
    expected = evaluate_offsets(
        protocol_e, protocol_f, offsets, horizon, model, turnaround
    )
    params = SweepParams(protocol_e, protocol_f, horizon, model, turnaround)
    kernel = NumpyBackend()
    assert kernel.evaluate_offsets_batch(params, offsets) == expected
    report, outcomes = kernel.sweep_outcomes_batch(params, offsets)
    assert report == summarize_outcomes(expected)
    assert list(outcomes) == expected
    assert [outcomes[i] for i in range(len(outcomes))] == expected


@st.composite
def retirement_cases(draw):
    protocol_e, protocol_f = draw(commensurate_pairs())
    hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
    offsets = draw(st.one_of(
        boot_batches(),
        st.lists(st.integers(-2 * hyper, hyper), min_size=2, max_size=30),
    ))
    horizon = draw(st.integers(4, 8)) * hyper + draw(st.integers(0, hyper))
    cuts = sorted(draw(st.lists(
        st.integers(0, len(offsets)), min_size=1, max_size=4
    )))
    bounds = [0, *cuts, len(offsets)]
    chunks = [offsets[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return protocol_e, protocol_f, offsets, horizon, chunks


@given(
    case=retirement_cases(),
    model=st.sampled_from(ReceptionModel),
    turnaround=st.sampled_from([0, 5, 50]),
)
@settings(max_examples=200, deadline=None)
def test_retirement_is_independent_of_batch_composition(
    case, model, turnaround
):
    protocol_e, protocol_f, offsets, horizon, chunks = case
    expected = evaluate_offsets(
        protocol_e, protocol_f, offsets, horizon, model, turnaround
    )
    params = SweepParams(protocol_e, protocol_f, horizon, model, turnaround)
    kernel = NumpyBackend()
    assert kernel.evaluate_offsets_batch(params, offsets) == expected
    chunked = [
        outcome
        for chunk in chunks
        for outcome in kernel.evaluate_offsets_batch(params, chunk)
    ]
    assert chunked == expected
    report, outcomes = kernel.sweep_outcomes_batch(params, offsets)
    assert report == summarize_outcomes(expected)
    assert list(outcomes) == expected
