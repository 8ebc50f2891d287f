"""Zoo-wide equivalence harness: every execution path is bit-identical.

The load-bearing invariant of the parallel runtime is that both
execution paths -- in-process and the persistent worker pool that
``jobs > 1`` selects -- produce bit-identical results for every
protocol family in the reproduction, including non-integer-period
schedules (which disable the pattern cache) and the drift/jitter
fidelity knobs of grid scenarios.  This file pins that invariant:

* one parametrized equivalence case per protocol family (13 families:
  the four classic slotted protocols, quorum, Nihao, Birthday, the two
  PI/BLE shapes, the three paper-optimal constructions, and a
  float-period PI pair exercising the uncached fallback);
* dedicated cases for patterns of more than 256 and 4096 segments,
  which small zoo schedules never reach, and the pinned digest of a
  large pattern (5 beacons per 1112 against 5 windows per 1090);
* grid equivalence between the serial path and the work-stealing pool
  with drift and advertising jitter enabled;
* unit tests of the keyed cache registry (hit/miss/LRU/invalidation);
* backend equivalence: ``numpy`` and ``jobs=2`` pinned bit-identical
  to the reference ``evaluate_offsets`` (which the ``python`` kernel
  is) for every family under **all three** reception models, plus
  persistent-pool lifecycle units (lazy creation, reuse across sweeps,
  explicit shutdown, no leaked worker processes, patterns built by the
  workers rather than the parent);
* the report path: ``NumpyBackend.sweep_outcomes_batch``'s report (both
  of its engines) equals ``summarize_outcomes`` over the reference for every
  family, model and turnaround {0, 150}, plus the reduction's corner
  cases (empty and single-offset batches, unidirectional pairs,
  all-undiscovered batches, earliest-offset ties) and ``jobs=2`` ==
  ``jobs=1`` on report sweeps;
* (PR 4) Session-facade equivalence: :class:`repro.api.Session` verbs
  pinned bit-identical to the plain in-process entry points across all
  13 families, plus a session lifecycle test showing zero leaked worker
  processes and shared-memory segments after ``__exit__``.
"""

import hashlib
import math
import os
import random

import pytest

from repro.api import RunSpec, RuntimeProfile, Session
from repro.backends import (
    available_backends,
    CriticalSetTooLarge,
    get_pooled_backend,
    have_numpy,
    NumpyBackend,
    PooledBackend,
    shutdown_pooled_backends,
    SweepParams,
)
from repro.core.sequences import (
    Beacon,
    BeaconSchedule,
    NDProtocol,
    ReceptionSchedule,
    ReceptionWindow,
)
from repro.parallel import (
    get_listening_cache,
    invalidate_listening_caches,
    ListeningCache,
    listening_cache_stats,
    ParallelSweep,
    protocol_fingerprint,
)
from repro.parallel.cache import _REGISTRY
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
from repro.simulation import (
    critical_offsets,
    evaluate_offsets,
    mutual_discovery_times,
    ReceptionModel,
    summarize_outcomes,
    sweep_network_grid,
    sweep_offsets,
    verified_worst_case,
)
from repro.workloads import (
    dense_network,
    drifting_pair,
    gradual_join,
    scenario_grid,
)

SLOT = 200
OMEGA = 16


def _pair(proto):
    return proto.device(Role.E), proto.device(Role.F)


def _float_pi_pair():
    """Non-integer periods: the pattern cache must disable and fall back."""
    adv = NDProtocol(
        beacons=BeaconSchedule.uniform(1, 100.1, 2),
        reception=ReceptionSchedule.single_window(25, 600),
    )
    scan = NDProtocol(
        beacons=BeaconSchedule.uniform(2, 150, 3),
        reception=ReceptionSchedule.single_window(40.5, 350.25),
    )
    return adv, scan


# One entry per protocol family: builder -> (protocol_e, protocol_f).
ZOO = {
    "disco": lambda: _pair(Disco(3, 5, slot_length=SLOT, omega=OMEGA)),
    "uconnect": lambda: _pair(UConnect(5, slot_length=SLOT, omega=OMEGA)),
    "searchlight": lambda: _pair(
        Searchlight(4, slot_length=SLOT, omega=OMEGA)
    ),
    "diffcodes": lambda: _pair(Diffcodes(2, slot_length=SLOT, omega=OMEGA)),
    "grid-quorum": lambda: _pair(
        GridQuorum(3, slot_length=SLOT, omega=OMEGA)
    ),
    "nihao": lambda: _pair(Nihao(3, slot_length=100, omega=OMEGA)),
    "birthday": lambda: _pair(
        Birthday(
            p_tx=0.2, p_rx=0.2, slot_length=100, omega=OMEGA,
            horizon_slots=64, seed=5,
        )
    ),
    "pi-bidirectional": lambda: _pair(
        PeriodicInterval(300, 700, 150, omega=OMEGA, bidirectional=True)
    ),
    "pi-adv-scan": lambda: _pair(
        PeriodicInterval(300, 700, 150, omega=OMEGA, bidirectional=False)
    ),
    "optimal-slotless": lambda: _pair(OptimalSlotless(eta=0.05, omega=32)),
    "optimal-asymmetric": lambda: _pair(
        OptimalAsymmetric(eta_e=0.1, eta_f=0.05, omega=32)
    ),
    "correlated-one-way": lambda: _pair(
        CorrelatedOneWay(k=4, window=64, omega=32)
    ),
    "float-period-pi": _float_pi_pair,
}

MODELS = list(ReceptionModel)


def _workload(protocol_e, protocol_f):
    """A deterministic offset list and horizon sized to the pair."""
    period = 1
    for proto in (protocol_e, protocol_f):
        if proto.beacons is not None:
            period = max(period, int(proto.beacons.period))
        if proto.reception is not None:
            period = max(period, int(proto.reception.period))
    step = max(1, (2 * period) // 40)
    offsets = list(range(0, 2 * period, step))
    # A prime-ish perturbation exercises off-grid residues too.
    offsets += [offset + 7 for offset in offsets[::5]]
    return offsets, period * 12


@pytest.mark.parametrize("family", list(ZOO), ids=list(ZOO))
def test_family_all_paths_bit_identical(family):
    """serial == in-process executor == persistent pool for every
    protocol family, as full per-offset outcome lists and as aggregated
    reports."""
    protocol_e, protocol_f = ZOO[family]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    # Rotate the reception model per family so all three decode
    # semantics appear across the zoo without tripling the runtime;
    # POINT (the paper's model) runs for every family below.
    model = MODELS[sorted(ZOO).index(family) % len(MODELS)]

    serial_outcomes = evaluate_offsets(
        protocol_e, protocol_f, offsets, horizon, model
    )
    serial_report = sweep_offsets(
        protocol_e, protocol_f, offsets, horizon, model
    )

    paths = {
        "in-process-cached": ParallelSweep(jobs=1),
        "pool": ParallelSweep(jobs=2),
    }
    for name, executor in paths.items():
        outcomes = executor.evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, model
        )
        assert outcomes == serial_outcomes, (family, name, model)
        report = executor.sweep_offsets(
            protocol_e, protocol_f, offsets, horizon, model
        )
        assert report == serial_report, (family, name, model)
    if model is not ReceptionModel.POINT:
        point_serial = sweep_offsets(protocol_e, protocol_f, offsets, horizon)
        for name, executor in paths.items():
            assert (
                executor.sweep_offsets(protocol_e, protocol_f, offsets, horizon)
                == point_serial
            ), (family, name)


# Every kernel that can run here is pinned automatically -- a new
# backend joins the zoo by registering, with no test edits.  The
# ``python`` kernel is ``evaluate_offsets`` itself, so comparing it with
# the reference would compare a function with itself.
KERNELS = [name for name in available_backends() if name != "python"]


def _engines():
    """The non-reference kernels in-process, and the ``jobs=2`` pool."""
    engines = {name: ParallelSweep(jobs=1, backend=name) for name in KERNELS}
    engines["jobs=2"] = ParallelSweep(jobs=2)
    return engines


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools_after_module():
    """Persistent pools are shared module-wide (that is the point of
    them); shut them down when this module's tests finish."""
    yield
    shutdown_pooled_backends()


@pytest.mark.parametrize("backend", KERNELS + ["jobs=2"])
@pytest.mark.parametrize("family", list(ZOO), ids=list(ZOO))
def test_family_backends_bit_identical_all_models(family, backend):
    """numpy and ``jobs=2`` (the persistent pool), pinned against the
    exact uncached reference, for every family under all three
    reception models -- full per-offset outcome lists, not just
    aggregates."""
    protocol_e, protocol_f = ZOO[family]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    with Session(RuntimeProfile(jobs=2)) as session:
        for model in MODELS:
            serial = evaluate_offsets(
                protocol_e, protocol_f, offsets, horizon, model
            )
            if backend == "jobs=2":
                got = session._engine().evaluate_offsets(
                    protocol_e, protocol_f, offsets, horizon, model
                )
            else:
                got = ParallelSweep(jobs=1, backend=backend).evaluate_offsets(
                    protocol_e, protocol_f, offsets, horizon, model
                )
            assert got == serial, (family, backend, model)


@pytest.mark.parametrize("backend", available_backends())
def test_backend_threads_through_parallel_sweep(backend):
    """The ParallelSweep backend knob is bit-identical on the sharded
    multi-worker path too (workers run the selected kernel).  For
    ``python`` this pins the pool's sharding and merge order, since
    each worker runs the reference itself."""
    protocol_e, protocol_f = ZOO["disco"]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    serial = evaluate_offsets(protocol_e, protocol_f, offsets, horizon)
    executor = ParallelSweep(jobs=2, backend=backend)
    assert executor.evaluate_offsets(
        protocol_e, protocol_f, offsets, horizon
    ) == serial


def test_turnaround_guard_reaches_every_backend():
    """A non-zero turnaround changes decisions; every kernel and the
    pool must agree with the reference under it (below-threshold boot
    queries included)."""
    protocol_e, protocol_f = ZOO["searchlight"]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    for model in MODELS:
        serial = evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, model, turnaround=7
        )
        for name, engine in _engines().items():
            got = engine.evaluate_offsets(
                protocol_e, protocol_f, offsets, horizon, model, turnaround=7
            )
            assert got == serial, (name, model)


def _pattern_lookups():
    stats = listening_cache_stats()
    return stats["hits"] + stats["misses"]


@pytest.mark.parametrize("turnaround", [0, 7])
@pytest.mark.parametrize("model", MODELS, ids=[m.value for m in MODELS])
@pytest.mark.parametrize("family", ["disco", "float-period-pi"])
def test_python_kernel_is_the_reference(family, model, turnaround):
    """The ``python`` kernel answers through ``evaluate_offsets`` and
    resolves no listening pattern: a sweep and a ``worst_case`` on it
    leave the registry's lookup count unchanged, and their outcomes and
    payloads equal the reference's and the numpy session's."""
    protocol_e, protocol_f = ZOO[family]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    sweep = RunSpec(
        pair=(protocol_e, protocol_f), offsets=list(offsets),
        horizon=horizon, model=model.value, turnaround=turnaround,
    )
    worst = RunSpec(
        pair=(protocol_e, protocol_f), horizon=horizon, omega=OMEGA,
        des_spot_checks=4, model=model.value, turnaround=turnaround,
    )

    before = _pattern_lookups()
    outcomes = ParallelSweep(jobs=1, backend="python").evaluate_offsets(
        protocol_e, protocol_f, offsets, horizon, model, turnaround
    )
    with Session(RuntimeProfile(backend="python")) as session:
        results = [session.sweep(sweep), session.worst_case(worst)]
    assert _pattern_lookups() == before

    assert outcomes == evaluate_offsets(
        protocol_e, protocol_f, offsets, horizon, model, turnaround
    )
    assert results[0].raw == summarize_outcomes(outcomes)
    if have_numpy():
        with Session(RuntimeProfile(backend="numpy")) as session:
            fast = [session.sweep(sweep), session.worst_case(worst)]
        for got, expected in zip(results, fast):
            assert got.payload == expected.payload, (got.verb, family)


def _dense_pattern_pair(gap, window_period, window=64):
    """A pair whose receiver pattern has many segments per hyperperiod."""
    proto = NDProtocol(
        beacons=BeaconSchedule.uniform(1, gap, 2),
        reception=ReceptionSchedule.single_window(window, window_period),
    )
    return proto, proto


@pytest.mark.parametrize(
    "gap,window_period,regime",
    [
        (255, 256, "mid-pattern"),  # >= 256 segments
        (2049, 2048, "large-pattern"),  # >= 4096 segments
    ],
)
def test_large_pattern_regimes_bit_identical(gap, window_period, regime):
    """Patterns of more than 256 and 4096 segments (unreachable with
    small zoo schedules) also reproduce the serial path exactly,
    in-process and through ``jobs=2`` workers."""
    protocol_e, protocol_f = _dense_pattern_pair(gap, window_period)
    cache = ListeningCache(protocol_e)
    assert cache.enabled
    min_segments = {"mid-pattern": 256, "large-pattern": 4096}[regime]
    assert cache.pattern_segments >= min_segments
    hyper = protocol_e.hyperperiod()
    offsets = list(range(0, hyper, max(1, hyper // 48)))
    horizon = 6 * window_period

    serial = evaluate_offsets(protocol_e, protocol_f, offsets, horizon)
    for name, engine in _engines().items():
        got = engine.evaluate_offsets(protocol_e, protocol_f, offsets, horizon)
        assert got == serial, (regime, name)


#: Five 32-long beacons per 1112 against five 150-long windows per 1090:
#: hyperperiod 606,040, and every window meets an own beacon or its
#: guard somewhere in it.
_FIVE_BY_FIVE = NDProtocol(
    beacons=BeaconSchedule(
        [Beacon(time, 32) for time in (0, 222, 444, 666, 888)], 1112
    ),
    reception=ReceptionSchedule(
        [ReceptionWindow(start, 150) for start in (0, 218, 436, 654, 872)],
        1090,
    ),
)


@pytest.mark.parametrize(
    "turnaround,segments,digest",
    [
        (0, 8460, "632a00f25332cdafc1b76c3073f50b93"
                  "b5a26c09da35bb919eba5d62161e36e1"),
        (50, 5960, "a0191b0526c57393fd375d32cb1ec614"
                   "c8a15303f7a08483a2199a8eaf81a728"),
    ],
)
def test_large_pattern_pinned(turnaround, segments, digest):
    """The 5x5 receiver's pattern, pinned by the SHA-256 of its
    ``(starts, ends)`` lists as built by the per-beacon subtraction the
    linear merge replaced."""
    cache = ListeningCache(_FIVE_BY_FIVE, turnaround)
    assert cache.enabled and cache.hyper == 606_040
    assert cache.pattern_segments == segments
    pattern = repr((cache._starts, cache._ends)).encode()
    assert hashlib.sha256(pattern).hexdigest() == digest


# ----------------------------------------------------------------------
# The report path: the numpy kernel reduces its discovery vectors into
# the SweepReport without building per-offset outcomes.
# ----------------------------------------------------------------------

needs_numpy = pytest.mark.skipif(not have_numpy(), reason="needs NumPy")


def _report_offset_sets(family, protocol_e, protocol_f, turnaround):
    """Critical (thinned), uniform-stride and shuffled offset batches,
    plus stride-1 offsets that line every boot end up with the first
    beacons (the kernel's boot-screen edges)."""
    offsets, _horizon = _workload(protocol_e, protocol_f)
    try:
        critical = critical_offsets(
            protocol_e, protocol_f, omega=OMEGA, turnaround=turnaround
        )
    except CriticalSetTooLarge:
        critical = []
    critical = critical[:: max(1, len(critical) // 60)]
    shuffled = list(offsets)
    random.Random(family).shuffle(shuffled)
    uniform = offsets[:40]  # the arithmetic progression part
    return {
        "critical": critical,
        "uniform": uniform,
        "shuffled": shuffled,
        "boot": list(range(128)),
    }


def _reference_report(
    protocol_e, protocol_f, offsets, horizon, model, turnaround
):
    return summarize_outcomes(
        evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, model, turnaround
        )
    )


@needs_numpy
@pytest.mark.parametrize("family", list(ZOO), ids=list(ZOO))
def test_family_report_path_matches_reference(family):
    """``NumpyBackend.sweep_outcomes_batch``'s report equals
    ``summarize_outcomes``
    over the exact reference for every family, reception model and
    turnaround {0, 150}, on critical, uniform-stride, shuffled and
    stride-1 boot-region offsets."""
    protocol_e, protocol_f = ZOO[family]()
    _offsets, horizon = _workload(protocol_e, protocol_f)
    kernel = NumpyBackend()
    for turnaround in (0, 150):
        sets = _report_offset_sets(family, protocol_e, protocol_f, turnaround)
        for model in MODELS:
            params = SweepParams(
                protocol_e, protocol_f, horizon, model, turnaround
            )
            for name, offsets in sets.items():
                expected = _reference_report(
                    protocol_e, protocol_f, offsets, horizon, model,
                    turnaround,
                )
                got, _ = kernel.sweep_outcomes_batch(params, offsets)
                assert got == expected, (family, turnaround, model, name)


@pytest.mark.parametrize(
    "family", ["disco", "pi-adv-scan", "optimal-slotless"]
)
def test_report_path_pool_matches_in_process(family):
    """``ParallelSweep(jobs=2).sweep_offsets`` (outcomes summarized in
    the parent) equals ``jobs=1`` (the in-process reduction)."""
    protocol_e, protocol_f = ZOO[family]()
    _offsets, horizon = _workload(protocol_e, protocol_f)
    offsets = _report_offset_sets(family, protocol_e, protocol_f, 0)[
        "critical"
    ]
    for model in MODELS:
        serial = ParallelSweep(jobs=1).sweep_offsets(
            protocol_e, protocol_f, offsets, horizon, model
        )
        sharded = ParallelSweep(jobs=2).sweep_offsets(
            protocol_e, protocol_f, offsets, horizon, model
        )
        assert sharded == serial, (family, model)


@needs_numpy
class TestReportPathEdgeCases:
    """Batches whose report hinges on the reduction's corner rules."""

    def _check(self, protocol_e, protocol_f, offsets, horizon, model=None):
        model = model or ReceptionModel.POINT
        expected = _reference_report(
            protocol_e, protocol_f, offsets, horizon, model, 0
        )
        params = SweepParams(protocol_e, protocol_f, horizon, model)
        report, _ = NumpyBackend().sweep_outcomes_batch(params, offsets)
        assert report == expected
        return expected

    def test_empty_and_single_offset_batches(self):
        protocol_e, protocol_f = ZOO["disco"]()
        _offsets, horizon = _workload(protocol_e, protocol_f)
        empty = self._check(protocol_e, protocol_f, [], horizon)
        assert empty.offsets_evaluated == 0 and empty.worst_one_way is None
        single = self._check(protocol_e, protocol_f, [317], horizon)
        assert single.offsets_evaluated == 1
        assert single.worst_offset_one_way in (317, None)

    @pytest.mark.parametrize("model", MODELS, ids=[m.value for m in MODELS])
    def test_unidirectional_pairs(self, model):
        """One direction cannot discover at all: no two-way latency."""
        advertiser, scanner = ZOO["pi-adv-scan"]()
        beacon_only = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 300, 16), reception=None
        )
        for protocol_e, protocol_f in (
            (advertiser, scanner),
            (scanner, advertiser),
            (beacon_only, scanner),
        ):
            offsets, horizon = _workload(protocol_e, protocol_f)
            report = self._check(
                protocol_e, protocol_f, offsets, horizon, model
            )
            assert report.worst_two_way is None
            assert report.mean_two_way is None

    @pytest.mark.parametrize("family", ["disco", "uconnect"])
    def test_all_undiscovered_self_blocking_offsets(self, family):
        """Offsets where self-blocking starves both directions: every
        latency field is ``None`` and every offset is a failure."""
        protocol_e, protocol_f = ZOO[family]()
        _offsets, horizon = _workload(protocol_e, protocol_f)
        candidates = critical_offsets(protocol_e, protocol_f, omega=OMEGA)
        outcomes = evaluate_offsets(
            protocol_e, protocol_f, candidates, horizon
        )
        starved = [o.offset for o in outcomes if o.one_way is None]
        assert starved, family
        report = self._check(protocol_e, protocol_f, starved, horizon)
        assert report.failures == report.offsets_evaluated == len(starved)
        assert report.worst_one_way is None and report.mean_one_way is None

    def test_tied_worst_case_earliest_offset_wins(self):
        """Offsets a joint hyperperiod apart tie exactly; the report
        names whichever comes first in the batch."""
        protocol_e, protocol_f = ZOO["searchlight"]()
        offsets, horizon = _workload(protocol_e, protocol_f)
        worst = sweep_offsets(protocol_e, protocol_f, offsets, horizon)
        hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
        late = worst.worst_offset_two_way + hyper
        for batch, first in (
            ([late] + offsets, late),
            (offsets + [late], worst.worst_offset_two_way),
        ):
            report = self._check(protocol_e, protocol_f, batch, horizon)
            assert report.worst_two_way == worst.worst_two_way
            assert report.worst_offset_two_way == first


def test_grid_pool_matches_serial_with_fidelity_knobs():
    """Work-stealing pool == serial for grids mixing device counts,
    drift and staggered joins, with advertising jitter on."""
    grid = (
        scenario_grid(dense_network, n_devices=[3, 4], eta=[0.05], seed=[0, 1])
        + [drifting_pair(eta=0.05, drift_ppm=40, seed=2)]
        + [gradual_join(n_devices=3, eta=0.05, seed=3)]
    )
    kwargs = dict(base_seed=11, advertising_jitter=300)
    serial = sweep_network_grid(grid, **kwargs)
    pool = ParallelSweep(jobs=2)
    stolen = pool.map_scenarios(grid, **kwargs)
    assert stolen == serial
    # The jitter knob actually reached the simulation: a different
    # jitter bound must move at least one scenario's outcome.
    unjittered = pool.map_scenarios(grid, base_seed=11)
    assert unjittered != serial


class TestKeyedCacheRegistry:
    def setup_method(self):
        invalidate_listening_caches()

    def test_fingerprint_is_content_keyed(self):
        protocol_e, _ = ZOO["disco"]()
        clone_e, _ = ZOO["disco"]()
        other, _ = ZOO["nihao"]()
        assert protocol_e is not clone_e
        assert protocol_fingerprint(protocol_e) == protocol_fingerprint(clone_e)
        assert protocol_fingerprint(protocol_e) != protocol_fingerprint(other)
        assert protocol_fingerprint(protocol_e, turnaround=5) != (
            protocol_fingerprint(protocol_e)
        )

    def test_integer_and_float_schedules_fingerprint_differently(self):
        int_proto = NDProtocol(
            beacons=None, reception=ReceptionSchedule.single_window(25, 100)
        )
        float_proto = NDProtocol(
            beacons=None, reception=ReceptionSchedule.single_window(25.0, 100.0)
        )
        assert protocol_fingerprint(int_proto) != protocol_fingerprint(float_proto)
        # Only the integer grid gets a pattern.
        assert ListeningCache(int_proto).enabled
        assert not ListeningCache(float_proto).enabled

    def test_hits_share_one_cache_object(self):
        protocol, _ = ZOO["disco"]()
        before = listening_cache_stats()
        first = get_listening_cache(protocol)
        second = get_listening_cache(protocol)
        clone, _ = ZOO["disco"]()
        third = get_listening_cache(clone)
        assert first is second is third
        after = listening_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 2

    def test_invalidation_forces_rebuild(self):
        protocol, _ = ZOO["disco"]()
        first = get_listening_cache(protocol)
        assert invalidate_listening_caches(protocol_fingerprint(protocol)) == 1
        second = get_listening_cache(protocol)
        assert second is not first
        assert invalidate_listening_caches() >= 1
        assert invalidate_listening_caches() == 0
        assert listening_cache_stats()["size"] == 0

    def test_registry_is_lru_bounded(self):
        from repro.parallel.cache import _KEY_MEMO, _KEY_MEMO_CAP, _REGISTRY_CAP

        protocols = [
            NDProtocol(
                beacons=None,
                reception=ReceptionSchedule.single_window(10, 100 + i),
            )
            for i in range(_REGISTRY_CAP + 5)
        ]
        for proto in protocols:
            get_listening_cache(proto)
            assert len(_KEY_MEMO) <= _KEY_MEMO_CAP
        stats = listening_cache_stats()
        assert stats["size"] == _REGISTRY_CAP
        # The oldest fingerprints were evicted, the newest retained.
        assert protocol_fingerprint(protocols[0], 0) not in _REGISTRY
        assert protocol_fingerprint(protocols[-1], 0) in _REGISTRY


def _worker_pids(backend, count=8):
    """The distinct worker PIDs currently serving the backend's pool."""
    futures = [backend.submit(os.getpid) for _ in range(count)]
    return {future.result() for future in futures}


def _assert_processes_exit(pids, timeout_s=10.0):
    import time

    deadline = time.monotonic() + timeout_s
    remaining = set(pids)
    while remaining and time.monotonic() < deadline:
        for pid in list(remaining):
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                remaining.discard(pid)
        if remaining:
            time.sleep(0.05)
    assert not remaining, f"worker processes leaked: {remaining}"


class TestPersistentPoolLifecycle:
    """The persistent pool's contract: lazy creation, reuse across
    sweeps, explicit shutdown, no leaked worker processes."""

    def _params(self):
        protocol_e, protocol_f = ZOO["disco"]()
        offsets, horizon = _workload(protocol_e, protocol_f)
        return (
            SweepParams(protocol_e, protocol_f, horizon, ReceptionModel.POINT),
            offsets,
        )

    def test_creation_is_lazy_and_degenerate_batches_stay_in_process(self):
        backend = PooledBackend(jobs=2)
        assert not backend.started
        params, offsets = self._params()
        single = backend.evaluate_offsets_batch(params, offsets[:1])
        assert not backend.started  # one offset never boots a pool
        assert len(single) == 1
        backend.evaluate_offsets_batch(params, offsets)
        assert backend.started
        backend.close()

    def test_pool_reused_across_sweeps(self):
        backend = PooledBackend(jobs=2)
        try:
            params, offsets = self._params()
            backend.evaluate_offsets_batch(params, offsets)
            first = backend.executor()
            pids = _worker_pids(backend)
            backend.evaluate_offsets_batch(params, offsets)
            # Same executor, and the original workers are still alive --
            # the second sweep paid no pool startup.  (The PID *set* may
            # grow as the lazy pool scales toward max_workers, so only
            # identity and liveness are contractual.)
            assert backend.executor() is first
            for pid in pids:
                os.kill(pid, 0)  # raises if the worker died
        finally:
            backend.close()

    def test_explicit_shutdown_terminates_workers_and_allows_reuse(self):
        backend = PooledBackend(jobs=2)
        params, offsets = self._params()
        serial = evaluate_offsets(
            params.protocol_e, params.protocol_f, offsets, params.horizon
        )
        assert backend.evaluate_offsets_batch(params, offsets) == serial
        pids = _worker_pids(backend)
        backend.close()
        assert not backend.started
        _assert_processes_exit(pids)
        backend.close()  # idempotent
        # A closed backend lazily boots a fresh pool on next use.
        assert backend.evaluate_offsets_batch(params, offsets) == serial
        assert backend.started
        backend.close()

    def test_workers_build_their_own_patterns(self):
        """A pool sweep builds no listening pattern in the parent: each
        worker resolves the patterns through its own keyed registry,
        as an in-process sweep does, and answers like the serial path."""
        params, offsets = self._params()
        fingerprints = {
            protocol_fingerprint(protocol, params.turnaround)
            for protocol in (params.protocol_e, params.protocol_f)
        }
        invalidate_listening_caches()
        backend = PooledBackend(jobs=2)
        try:
            pooled = backend.evaluate_offsets_batch(params, offsets)
            assert backend.started
            assert not fingerprints & set(_REGISTRY)
            assert listening_cache_stats()["size"] == 0
        finally:
            backend.close()
        assert pooled == evaluate_offsets(
            params.protocol_e, params.protocol_f, offsets, params.horizon
        )

    def test_shared_instances_keyed_by_shape(self):
        a = get_pooled_backend(jobs=2)
        b = get_pooled_backend(jobs=2)
        c = get_pooled_backend(jobs=3)
        assert a is b
        assert a is not c
        # Every jobs=2 ParallelSweep resolves the same shared map, so
        # independent sweeps reuse one warm pool.
        assert ParallelSweep(jobs=2).pool() is a
        assert ParallelSweep(jobs=1).pool() is None

    def test_shutdown_pooled_backends_counts_live_pools_only(self):
        shutdown_pooled_backends()
        backend = get_pooled_backend(jobs=2)
        params, offsets = self._params()
        backend.evaluate_offsets_batch(params, offsets)
        pids = _worker_pids(backend)
        assert shutdown_pooled_backends() == 1
        assert shutdown_pooled_backends() == 0
        _assert_processes_exit(pids)

    def test_grid_and_spot_checks_reuse_persistent_pool(self):
        """Grids and DES spot-checks share the pool's workers and stay
        bit-identical to the serial path."""
        grid = scenario_grid(dense_network, n_devices=[3, 4], eta=[0.05], seed=[0, 1])
        executor = ParallelSweep(jobs=2)
        serial = sweep_network_grid(grid, base_seed=5)
        pooled = executor.map_scenarios(grid, base_seed=5)
        assert pooled == serial
        protocol_e, protocol_f = ZOO["disco"]()
        offsets, horizon = _workload(protocol_e, protocol_f)
        serial_checks = ParallelSweep(jobs=1).spot_check_pairs(
            protocol_e, protocol_f, offsets[:4], horizon
        )
        assert executor.spot_check_pairs(
            protocol_e, protocol_f, offsets[:4], horizon
        ) == serial_checks
        # One DES outcome per offset, in order, equal to the reference.
        assert serial_checks == [
            mutual_discovery_times(protocol_e, protocol_f, offset, horizon)
            for offset in offsets[:4]
        ]


# ----------------------------------------------------------------------
# PR 4: the Session facade vs the plain entry points
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family", list(ZOO), ids=list(ZOO))
def test_session_sweep_matches_legacy_entry_points(family):
    """Session.sweep pinned bit-identical to the exact reference and to
    an auto-kernel executor, for every protocol family."""
    protocol_e, protocol_f = ZOO[family]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    model = MODELS[sorted(ZOO).index(family) % len(MODELS)]

    reference_report = sweep_offsets(
        protocol_e, protocol_f, offsets, horizon, model
    )
    legacy_kwarg_report = ParallelSweep(jobs=1, backend="auto").sweep_offsets(
        protocol_e, protocol_f, offsets, horizon, model
    )
    spec = RunSpec(
        pair=(protocol_e, protocol_f),
        offsets=list(offsets),
        horizon=horizon,
        model=model.value,
    )
    with Session(RuntimeProfile(jobs=1)) as session:
        facade_report = session.sweep(spec).raw
    assert facade_report == reference_report == legacy_kwarg_report, family


def test_session_sweep_sharded_matches_legacy():
    """The multi-worker facade path (jobs=2, the persistent pool) equals
    the sharded executor and the serial reference."""
    protocol_e, protocol_f = ZOO["disco"]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    serial = sweep_offsets(protocol_e, protocol_f, offsets, horizon)
    legacy = ParallelSweep(jobs=2).sweep_offsets(
        protocol_e, protocol_f, offsets, horizon
    )
    spec = RunSpec(pair=(protocol_e, protocol_f), offsets=list(offsets),
                   horizon=horizon)
    with Session(RuntimeProfile(jobs=2)) as session:
        facade = session.sweep(spec).raw
    assert facade == serial == legacy


@pytest.mark.parametrize("family", ["disco", "nihao", "optimal-slotless"])
def test_session_worst_case_matches_legacy(family):
    """Session.worst_case equals the in-process verified_worst_case
    (report, verdict and offsets checked) for representative families."""
    protocol_e, protocol_f = ZOO[family]()
    _offsets, horizon = _workload(protocol_e, protocol_f)
    legacy = verified_worst_case(
        protocol_e, protocol_f, horizon, omega=OMEGA, des_spot_checks=4
    )
    spec = RunSpec(
        pair=(protocol_e, protocol_f), horizon=horizon, omega=OMEGA,
        des_spot_checks=4,
    )
    with Session(RuntimeProfile(jobs=1)) as session:
        facade = session.worst_case(spec).raw
    assert facade == legacy, family


def test_session_grid_matches_legacy_entry_point():
    """Session.grid on the pool equals the in-process
    sweep_network_grid for a grid mixing device counts, drift and
    staggered joins."""
    grid = (
        scenario_grid(dense_network, n_devices=[3, 4], eta=[0.05], seed=[0, 1])
        + [drifting_pair(eta=0.05, drift_ppm=40, seed=2)]
        + [gradual_join(n_devices=3, eta=0.05, seed=3)]
    )
    legacy = sweep_network_grid(grid, base_seed=11, advertising_jitter=300)
    spec = RunSpec(grid=grid, seed=11, advertising_jitter=300)
    with Session(RuntimeProfile(jobs=2)) as session:
        facade = session.grid(spec).raw
    assert facade == legacy


def test_session_lifecycle_leaks_nothing():
    """After ``__exit__``: zero leaked worker processes, zero leaked
    shared-memory segments (the PR-4 acceptance criterion)."""
    shm_dir = "/dev/shm"
    can_watch_shm = os.path.isdir(shm_dir)
    before_shm = set(os.listdir(shm_dir)) if can_watch_shm else set()
    protocol_e, protocol_f = ZOO["disco"]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    spec = RunSpec(pair=(protocol_e, protocol_f), offsets=list(offsets),
                   horizon=horizon)
    with Session(RuntimeProfile(jobs=2)) as session:
        session.sweep(spec)
        session.grid(RunSpec(
            grid=scenario_grid(dense_network, n_devices=[3, 4], eta=[0.05],
                               seed=[0]),
            seed=7,
        ))
        pool = session._engine().pool()
        assert pool.started
        pids = _worker_pids(pool)
    assert not pool.started
    _assert_processes_exit(pids)
    if can_watch_shm:
        leaked = set(os.listdir(shm_dir)) - before_shm
        assert not leaked, f"shared-memory segments leaked: {leaked}"
