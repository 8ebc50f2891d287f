"""Property test: the numpy kernel's vector reducer equals the reference fold.

``NumpyBackend.sweep_outcomes_batch`` builds no per-offset outcome:
it reduces the two first-discovery vectors straight into a
:class:`SweepReport` (:func:`repro.backends.numpy_kernel.summarize_discovery_vectors`).
This file pins that reduction to
:func:`repro.simulation.analytic.summarize_outcomes` over the outcomes
the vectors describe, on random vectors with

* ``-1`` entries (undiscovered directions) and absent directions;
* heavy ties, so the earliest-offset rule decides the worst offset;
* values near ``2**60``, where an int64 sum would overflow and the
  reducer must sum Python ints instead.

Means compare with ``==``: both sides divide the same exact integer sum
by the same count.  Runs under hypothesis when installed (the CI
property lane) and as a seeded loop otherwise; skipped without NumPy,
which the reducer needs.
"""

import random

import pytest

from repro.backends import _np, have_numpy
from repro.backends.numpy_kernel import summarize_discovery_vectors
from repro.simulation.analytic import DiscoveryOutcome, summarize_outcomes

pytestmark = pytest.mark.skipif(not have_numpy(), reason="needs NumPy")
np = _np.np

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised without hypothesis
    HAVE_HYPOTHESIS = False

_BIG = 1 << 60


def _reference(offsets, e_by_f, f_by_e):
    def value(vec, k):
        if vec is None or vec[k] < 0:
            return None
        return vec[k]

    return summarize_outcomes(
        DiscoveryOutcome(offset, value(e_by_f, k), value(f_by_e, k))
        for k, offset in enumerate(offsets)
    )


def _check(offsets, e_by_f, f_by_e):
    expected = _reference(offsets, e_by_f, f_by_e)
    got = summarize_discovery_vectors(
        offsets,
        None if e_by_f is None else np.array(e_by_f, dtype=np.int64),
        None if f_by_e is None else np.array(f_by_e, dtype=np.int64),
    )
    assert got == expected, (offsets, e_by_f, f_by_e)


def _draw_vectors(rng: random.Random, n: int):
    """Offsets plus two discovery vectors from a small value pool (ties
    are common), sometimes near 2**60, sometimes with a direction
    absent."""
    scale = rng.choice([1, 1_000, _BIG - 5_000])
    pool = [-1] + [scale + rng.randrange(0, 4_000) for _ in range(3)]
    offsets = rng.sample(range(10 * n + 10), n)

    def vector():
        if rng.random() < 0.15:
            return None
        return [rng.choice(pool) for _ in range(n)]

    return offsets, vector(), vector()


if HAVE_HYPOTHESIS:

    @st.composite
    def _vectors(draw):
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        n = draw(st.integers(min_value=0, max_value=40))
        return _draw_vectors(random.Random(seed), n)

    @settings(max_examples=300, deadline=None)
    @given(_vectors())
    def test_reducer_matches_summarize_outcomes(case):
        _check(*case)

else:

    def test_reducer_matches_summarize_outcomes():
        rng = random.Random(20261017)
        for _ in range(300):
            _check(*_draw_vectors(rng, rng.randint(0, 40)))


def test_int64_overflow_takes_the_python_sum():
    """Eight latencies near 2**60 sum past int64: the means must still
    be the exact Python-int quotient."""
    offsets = list(range(8))
    e_by_f = [_BIG + k for k in range(8)]
    f_by_e = [_BIG + 7 - k for k in range(8)]
    _check(offsets, e_by_f, f_by_e)
    report = summarize_discovery_vectors(
        offsets, np.array(e_by_f), np.array(f_by_e)
    )
    total = sum(max(a, b) for a, b in zip(e_by_f, f_by_e))
    assert total > (1 << 63) - 1
    assert report.mean_two_way == total / 8


def test_earliest_offset_wins_ties():
    offsets = [30, 10, 20]
    _check(offsets, [5, 9, 9], [-1, 9, 9])
    report = summarize_discovery_vectors(
        offsets, np.array([5, 9, 9]), np.array([-1, 9, 9])
    )
    assert report.worst_offset_one_way == 10
    assert report.worst_offset_two_way == 10
