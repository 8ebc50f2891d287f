"""Property-based differential harness for critical-offset enumeration.

PR 5 made :func:`repro.simulation.critical_offsets` the second
kernel-dispatched :mod:`repro.backends` operation.  This file pins the
two invariants the worst-case pipeline rests on, over *randomized*
draws from all 13 protocol-zoo families (random family parameters,
random omega, random turnaround):

1. **Kernel parity** -- every accelerated kernel that can run here
   (``numpy`` -- the list comes from ``available_backends()``, so
   future kernels join automatically)
   returns the bit-identical sorted list of python ints as the
   pure-python reference, and raises ``ValueError`` with the identical
   message at the identical point for undersized ``max_count`` --
   including the bitmap-dedup and sort-dedup regimes.
2. **Exactness** -- on small hyperperiods, sweeping only the enumerated
   offsets finds exactly the dense sweep's worst one-way and two-way
   latencies (POINT model) **at the drawn turnaround**: the enumeration
   takes ``turnaround`` and adds the receiver self-blocking guard edges
   plus the boot-time activation anchors, closing what used to be a
   documented limitation (non-zero turnaround shifted self-blocking
   edges off the enumerated grid).

The harness runs under hypothesis when installed (the CI property lane)
and falls back to a deterministic seeded loop otherwise, so tier-1
passes with neither hypothesis nor numpy present; numpy-dependent
asserts degrade to reference-only checks.
"""

import math
import random

import pytest

from repro.backends import available_backends
from repro.core.sequences import BeaconSchedule, NDProtocol, ReceptionSchedule
from repro.parallel import ParallelSweep
from repro.protocols import (
    Birthday,
    CorrelatedOneWay,
    Diffcodes,
    Disco,
    GridQuorum,
    Nihao,
    OptimalAsymmetric,
    OptimalSlotless,
    PeriodicInterval,
    Role,
    Searchlight,
    UConnect,
)
from repro.simulation import critical_offsets, sweep_offsets

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised by the no-deps CI lane
    HAVE_HYPOTHESIS = False

# The accelerated kernels to pin against the reference: everything
# registered and runnable except the reference itself.
FAST_KERNELS = [name for name in available_backends() if name != "python"]

# Dense sweeps above this hyperperiod would dominate the harness's
# runtime; family parameters below are chosen so most draws land under
# it, and larger draws still run the (hyper-independent) parity checks.
_DENSE_HYPER_MAX = 8_000


def _pair(proto):
    return proto.device(Role.E), proto.device(Role.F)


def _float_pi_pair(rng):
    """Non-integer periods: enumeration int-truncates, kernels must agree."""
    adv = NDProtocol(
        beacons=BeaconSchedule.uniform(1, 90 + rng.random() * 20, 2),
        reception=ReceptionSchedule.single_window(25, 600),
    )
    scan = NDProtocol(
        beacons=BeaconSchedule.uniform(2, 150, 3),
        reception=ReceptionSchedule.single_window(
            40 + rng.random(), 350 + rng.random()
        ),
    )
    return adv, scan


#: One randomized builder per zoo family: rng -> (protocol_e, protocol_f).
FAMILY_BUILDERS = {
    "disco": lambda rng: _pair(
        Disco(*rng.choice([(3, 5), (3, 7), (5, 7)]),
              slot_length=rng.choice([40, 60, 80]), omega=8)
    ),
    "uconnect": lambda rng: _pair(
        UConnect(rng.choice([3, 5]), slot_length=rng.choice([40, 60]), omega=8)
    ),
    "searchlight": lambda rng: _pair(
        Searchlight(rng.choice([3, 4, 5]), slot_length=rng.choice([40, 60]),
                    omega=8)
    ),
    "diffcodes": lambda rng: _pair(
        Diffcodes(rng.choice([2, 3]), slot_length=rng.choice([40, 60]),
                  omega=8)
    ),
    "grid-quorum": lambda rng: _pair(
        GridQuorum(rng.choice([2, 3]), slot_length=rng.choice([40, 60]),
                   omega=8)
    ),
    "nihao": lambda rng: _pair(
        Nihao(rng.choice([2, 3]), slot_length=rng.choice([30, 50]), omega=8)
    ),
    "birthday": lambda rng: _pair(
        Birthday(p_tx=rng.choice([0.1, 0.2, 0.3]),
                 p_rx=rng.choice([0.1, 0.2]),
                 slot_length=50, omega=8, horizon_slots=32,
                 seed=rng.randrange(64))
    ),
    "pi-bidirectional": lambda rng: _pair(
        PeriodicInterval(rng.choice([100, 150]), rng.choice([300, 450]),
                         rng.choice([50, 60]), omega=8, bidirectional=True)
    ),
    "pi-adv-scan": lambda rng: _pair(
        PeriodicInterval(rng.choice([100, 150]), rng.choice([300, 450]),
                         rng.choice([50, 60]), omega=8, bidirectional=False)
    ),
    "optimal-slotless": lambda rng: _pair(
        OptimalSlotless(eta=rng.choice([0.05, 0.1]), omega=16)
    ),
    "optimal-asymmetric": lambda rng: _pair(
        OptimalAsymmetric(eta_e=rng.choice([0.1, 0.2]), eta_f=0.05, omega=16)
    ),
    "correlated-one-way": lambda rng: _pair(
        CorrelatedOneWay(k=rng.choice([2, 4]), window=rng.choice([32, 48]),
                         omega=16)
    ),
    "float-period-pi": _float_pi_pair,
}

FAMILIES = sorted(FAMILY_BUILDERS)


def _check_family(family: str, seed: int) -> None:
    """One randomized differential check (the property body)."""
    # str seeding hashes with SHA-512, not the per-process randomized
    # str hash: the same (family, seed) reproduces the same draw in any
    # interpreter, which is what makes a CI failure replayable locally.
    rng = random.Random(f"{family}:{seed}")
    protocol_e, protocol_f = FAMILY_BUILDERS[family](rng)
    omega = rng.choice([None, 0, rng.randrange(1, 64)])
    turnaround = rng.choice([0, rng.randrange(1, 12)])

    try:
        reference = critical_offsets(
            protocol_e, protocol_f, omega=omega, turnaround=turnaround
        )
    except ValueError as exc:
        # This draw's critical set explodes past the default max_count:
        # the property left to check is that the accelerated kernels
        # reject it identically.
        for kernel in FAST_KERNELS:
            with pytest.raises(ValueError) as excinfo:
                critical_offsets(
                    protocol_e, protocol_f, omega=omega, backend=kernel,
                    turnaround=turnaround,
                )
            assert str(excinfo.value) == str(exc), (
                family, kernel, omega, turnaround,
            )
        return
    hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
    assert reference == sorted(set(reference))
    assert all(0 <= offset < hyper for offset in reference)

    for kernel in FAST_KERNELS:
        vectorized = critical_offsets(
            protocol_e, protocol_f, omega=omega, backend=kernel,
            turnaround=turnaround,
        )
        # Exact list equality -- values, order, and python-int types.
        assert vectorized == reference, (family, kernel, omega, turnaround)
        assert all(type(offset) is int for offset in vectorized[:16])
        if len(reference) > 1:
            # Guard parity: an undersized max_count must raise the same
            # ValueError (same guard, same message) from every kernel.
            undersized = max(1, len(reference) // 4)
            messages = []
            for backend in (None, kernel):
                with pytest.raises(ValueError) as excinfo:
                    critical_offsets(
                        protocol_e, protocol_f, omega=omega,
                        max_count=undersized, backend=backend,
                        turnaround=turnaround,
                    )
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1], (family, kernel, omega, messages)

    if hyper <= _DENSE_HYPER_MAX:
        horizon = hyper * 3
        engine = ParallelSweep(jobs=1, backend="python")
        dense = engine.sweep_offsets(
            protocol_e, protocol_f, list(range(hyper)), horizon,
            turnaround=turnaround,
        )
        pruned = engine.sweep_offsets(
            protocol_e, protocol_f, reference, horizon,
            turnaround=turnaround,
        )
        # Exactness: the enumerated breakpoints (plus one-sided-limit
        # neighbours) see every piece of the piecewise-constant
        # discovery function -- including the self-blocking guard edges
        # under the drawn turnaround -- so the worst cases agree
        # exactly.
        assert pruned.worst_one_way == dense.worst_one_way, (
            family, omega, turnaround,
        )
        assert pruned.worst_two_way == dense.worst_two_way, (
            family, omega, turnaround,
        )
        for kernel in FAST_KERNELS:
            # Kernel parity on the pruned evaluation itself, under the
            # drawn turnaround: enumeration and sweep both dispatch.
            kernel_engine = ParallelSweep(jobs=1, backend=kernel)
            assert kernel_engine.sweep_offsets(
                protocol_e, protocol_f, reference, horizon,
                turnaround=turnaround,
            ) == engine.sweep_offsets(
                protocol_e, protocol_f, reference, horizon,
                turnaround=turnaround,
            ), (family, kernel, omega, turnaround)


if HAVE_HYPOTHESIS:

    @settings(max_examples=26, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(min_value=0, max_value=2**16 - 1),
    )
    def test_critical_offsets_properties_hypothesis(family, seed):
        _check_family(family, seed)

else:  # pragma: no cover - exercised by the no-deps CI lane

    def test_critical_offsets_properties_hypothesis():
        pytest.skip("hypothesis not installed; seeded fallback covers this")


@pytest.mark.parametrize("family", FAMILIES)
def test_critical_offsets_properties_seeded_fallback(family):
    """The deterministic anchor: three fixed draws per family, run
    whether or not hypothesis is installed."""
    for seed in (0, 1, 2):
        _check_family(family, seed)


class TestSizeGuardDedup:
    """Regression for the PR-5 guard fix: the pre-enumeration size guard
    runs on the *deduplicated* window-bound count."""

    @staticmethod
    def _duplicate_heavy_pair():
        # 20 beacons on a 10us grid vs 10 *abutting* 10us windows
        # (every interior boundary is both an end and a start) with
        # omega equal to the reception period, which folds each
        # instance's shifted bounds exactly onto the previous
        # instance's.  Raw bounds: 80; deduplicated: 33.
        tx = NDProtocol(
            beacons=BeaconSchedule.from_times(
                [i * 10 for i in range(20)], 2000, duration=2
            ),
            reception=None,
        )
        rx = NDProtocol(
            beacons=None,
            reception=ReceptionSchedule.from_pairs(
                [(i * 10, 10) for i in range(10)], 1000
            ),
        )
        return tx, rx, 1000

    def test_duplicate_heavy_schedule_no_longer_rejected(self):
        tx, rx, omega = self._duplicate_heavy_pair()
        # Raw product 20 * 80 = 1600 > 4 * 200: the pre-fix guard
        # raised here.  Deduplicated product 20 * 33 = 660 <= 800, and
        # the actual critical set (180 offsets) fits max_count.
        offsets = critical_offsets(tx, rx, omega=omega, max_count=200)
        assert offsets == critical_offsets(tx, rx, omega=omega)
        assert 0 < len(offsets) <= 200

    def test_fixed_guard_matches_brute_force(self):
        tx, rx, omega = self._duplicate_heavy_pair()
        offsets = critical_offsets(tx, rx, omega=omega, max_count=200)
        hyper = math.lcm(tx.hyperperiod(), rx.hyperperiod())
        engine = ParallelSweep(jobs=1, backend="python")
        dense = engine.sweep_offsets(tx, rx, list(range(hyper)), hyper * 3)
        pruned = engine.sweep_offsets(tx, rx, offsets, hyper * 3)
        assert pruned.worst_one_way == dense.worst_one_way
        assert pruned.worst_two_way == dense.worst_two_way

    @pytest.mark.skipif(
        not FAST_KERNELS, reason="no accelerated kernel installed"
    )
    def test_fixed_guard_parity_with_fast_kernels(self):
        tx, rx, omega = self._duplicate_heavy_pair()
        reference = critical_offsets(tx, rx, omega=omega, max_count=200)
        for kernel in FAST_KERNELS:
            assert critical_offsets(
                tx, rx, omega=omega, max_count=200, backend=kernel
            ) == reference, kernel

    def test_oversized_configs_still_rejected(self):
        tx, rx, omega = self._duplicate_heavy_pair()
        with pytest.raises(ValueError, match="use a uniform sweep"):
            critical_offsets(tx, rx, omega=omega, max_count=100)
