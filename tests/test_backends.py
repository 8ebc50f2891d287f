"""Unit tests of the pluggable sweep-backend layer.

Registry semantics (names, auto-detection, unavailability errors), the
NumPy import-guard shim (including a simulated NumPy-less environment,
so every fallback path is exercised on machines that do have the
extra), kernel fallback behaviour on non-vectorizable inputs, numpy
kernel parity with the reference on its corner paths, the
``ListeningCache.pattern_arrays()`` accessor, the cost-model fit
helpers, and CLI threading of ``--backend``.
"""

import math

import pytest

from repro.backends import (
    available_backends,
    BackendUnavailable,
    default_backend_name,
    get_backend,
    have_numpy,
    numpy_version,
    NumpyBackend,
    PooledBackend,
    PythonBackend,
    resolve_backend,
    SweepBackend,
    SweepParams,
)
from repro.backends import _np
from repro.core.optimal import synthesize_symmetric
from repro.core.sequences import (
    Beacon,
    BeaconSchedule,
    NDProtocol,
    ReceptionSchedule,
    ReceptionWindow,
)
from repro.parallel import get_listening_cache, ParallelSweep
from repro.parallel.schedule import (
    cost_components,
    default_simulation_cost,
    fit_cost_weights,
)
from repro.simulation import evaluate_offsets, ReceptionModel, sweep_offsets
from repro.workloads import dense_network


def _small_pair():
    protocol, design = synthesize_symmetric(32, 0.05)
    offsets = list(range(0, 40_000, 1_111))
    return protocol, offsets, design.worst_case_latency * 3


class TestRegistry:
    def test_registered_names(self):
        names = available_backends()
        assert "python" in names
        assert "pooled" not in names  # parallelism is jobs, not a backend
        assert ("numpy" in names) == have_numpy()
        assert set(names) <= {"python", "numpy"}

    def test_get_backend_returns_shared_instances(self):
        assert get_backend("python") is get_backend("python")
        assert isinstance(get_backend("python"), PythonBackend)

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(KeyError, match="python"):
            get_backend("cuda")

    def test_resolve_auto_and_none_follow_detection(self):
        expected = default_backend_name()
        assert resolve_backend("auto").name == expected
        assert resolve_backend(None).name == expected

    def test_resolve_passes_instances_through(self):
        backend = PythonBackend()
        assert resolve_backend(backend) is backend

    def test_jobs_selects_shared_pool_for_shape(self):
        pool = ParallelSweep(jobs=2, backend="python").pool()
        assert isinstance(pool, PooledBackend)
        assert pool.jobs == 2
        assert ParallelSweep(jobs=2, backend="python").pool() is pool
        # Grids run no kernel, so every kernel shares the one pool.
        assert ParallelSweep(jobs=2).pool() is pool
        assert ParallelSweep(jobs=1, backend="python").pool() is None

    def test_jobs_2_kernel_tracks_numpy_availability(self, monkeypatch):
        """A ``jobs > 1`` executor re-detects its ``auto`` kernel per
        call, not pinning the first call's detection forever, and the
        grid pool it resolves does not depend on the kernel."""
        from repro.backends import shutdown_pooled_backends

        shutdown_pooled_backends()
        adv = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 100, 2),
            reception=ReceptionSchedule.single_window(25, 600),
        )
        scan = NDProtocol(
            beacons=BeaconSchedule.uniform(2, 150, 3),
            reception=ReceptionSchedule.single_window(40, 350),
        )
        offsets, horizon = list(range(0, 700, 3)), 5_000
        executor = ParallelSweep(jobs=2)
        pool = executor.pool()
        assert executor._resolve_backend().name == default_backend_name()
        reference = sweep_offsets(adv, scan, offsets, horizon)
        assert executor.sweep_offsets(adv, scan, offsets, horizon) == reference
        monkeypatch.setattr(_np, "np", None)
        assert executor._resolve_backend().name == "python"
        assert executor.sweep_offsets(adv, scan, offsets, horizon) == reference
        assert executor.pool() is pool
        assert not pool.started


class TestNumpyGuard:
    def test_auto_detection_prefers_fastest_available(self):
        if have_numpy():
            assert default_backend_name() == "numpy"
            assert numpy_version()
        else:
            assert default_backend_name() == "python"
            assert numpy_version() is None

    def test_simulated_numpy_absence_falls_back(self, monkeypatch):
        monkeypatch.setattr(_np, "np", None)
        assert not have_numpy()
        assert numpy_version() is None
        assert default_backend_name() == "python"
        assert "numpy" not in available_backends()
        with pytest.raises(BackendUnavailable, match="fast"):
            get_backend("numpy")
        # The whole sweep stack still works on the fallback kernel.
        protocol, offsets, horizon = _small_pair()
        serial = evaluate_offsets(protocol, protocol, offsets, horizon)
        auto = ParallelSweep(jobs=1, backend="auto").evaluate_offsets(
            protocol, protocol, offsets, horizon
        )
        assert auto == serial

    def test_numpy_backend_is_bit_identical_when_present(self):
        if not have_numpy():
            pytest.skip("NumPy extra not installed")
        protocol, offsets, horizon = _small_pair()
        serial = sweep_offsets(protocol, protocol, offsets, horizon)
        assert ParallelSweep(jobs=1, backend="numpy").sweep_offsets(
            protocol, protocol, offsets, horizon
        ) == serial


@pytest.mark.skipif(not have_numpy(), reason="NumPy extra not installed")
class TestNumpyKernelFallbacks:
    """Inputs the vectorized kernel must hand to the exact reference."""

    def _check(self, protocol_e, protocol_f, offsets, horizon, **kwargs):
        serial = evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, **kwargs
        )
        got = ParallelSweep(jobs=1, backend="numpy").evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, **kwargs
        )
        assert got == serial

    def test_float_offsets(self):
        protocol, _, horizon = _small_pair()
        self._check(protocol, protocol, [0.5, 10.25, 999.0], horizon)

    def test_huge_offsets_beyond_int64_headroom(self):
        protocol, _, horizon = _small_pair()
        self._check(protocol, protocol, [0, 1 << 61, (1 << 62) + 3], horizon)

    def test_float_horizon(self):
        protocol, offsets, horizon = _small_pair()
        self._check(protocol, protocol, offsets[:8], float(horizon))

    def test_non_integer_transmitter_schedule(self):
        adv = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 100.5, 2),
            reception=ReceptionSchedule.single_window(25, 600),
        )
        scan = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 150, 3),
            reception=ReceptionSchedule.single_window(40, 350),
        )
        self._check(adv, scan, list(range(0, 600, 7)), 4_000)

    @pytest.mark.parametrize(
        "odd",
        ["bool", "numpy-int", "float", "low", "high"],
    )
    def test_one_odd_offset_sends_the_batch_to_the_reference(self, odd):
        """A bool, a numpy int, a float, or an int at the headroom bound
        anywhere in the batch fails the vectorization precondition."""
        from repro.backends.numpy_kernel import _INT_BOUND

        value = {
            "bool": True,
            "numpy-int": _np.np.int64(3),
            "float": 2.0,
            "low": -_INT_BOUND,
            "high": _INT_BOUND,
        }[odd]
        protocol, offsets, horizon = _small_pair()
        params = SweepParams(
            protocol, protocol, horizon, ReceptionModel.POINT, 0
        )
        kernel = NumpyBackend()
        batch = [*offsets[:4], value, *offsets[4:8]]
        assert kernel._discovery_vectors(params, batch) is None
        edges = [*offsets[:4], 1 - _INT_BOUND, _INT_BOUND - 1]
        assert kernel._discovery_vectors(params, edges) is not None
        self._check(protocol, protocol, batch, horizon)

    def test_empty_offsets(self):
        protocol, _, horizon = _small_pair()
        assert ParallelSweep(jobs=1, backend="numpy").evaluate_offsets(
            protocol, protocol, [], horizon
        ) == []

    def test_below_threshold_queries_with_turnaround(self):
        protocol, offsets, horizon = _small_pair()
        self._check(protocol, protocol, offsets, horizon, turnaround=9)

    def test_all_models(self):
        protocol, offsets, horizon = _small_pair()
        for model in ReceptionModel:
            self._check(protocol, protocol, offsets[:16], horizon, model=model)


@pytest.mark.skipif(not have_numpy(), reason="NumPy extra not installed")
class TestNumpyReferenceParity:
    """``NumpyBackend()`` against the reference on the batches that
    reach its corner paths: strided and scattered offsets, boot-region
    queries, oversized beacons and non-vectorizable schedules."""

    def _check(self, protocol_e, protocol_f, offsets, horizon, **kwargs):
        serial = evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, **kwargs
        )
        params = SweepParams(
            protocol_e, protocol_f, horizon,
            kwargs.get("model", ReceptionModel.POINT),
            kwargs.get("turnaround", 0),
        )
        got = NumpyBackend().evaluate_offsets_batch(params, offsets)
        assert got == serial
        return got

    def test_strided_batch_under_every_model(self):
        protocol, _, horizon = _small_pair()
        offsets = list(range(-4_000, 40_000, 1_111))
        for model in ReceptionModel:
            self._check(protocol, protocol, offsets, horizon, model=model)

    def test_boot_threshold_split_with_turnaround(self):
        """Boot-region lanes the pattern cannot clear take the exact
        scalar path; the rest keep the pattern decision."""
        protocol, offsets, horizon = _small_pair()
        self._check(protocol, protocol, offsets, horizon, turnaround=9)
        offsets = list(range(0, 9_000, 13))
        self._check(protocol, protocol, offsets, horizon, turnaround=7)

    def test_boot_end_and_horizon_edges(self):
        """Offsets over every rx phase residue of a short-period device,
        so some lane's boot end and some lane's discovery fall on each
        early instant, and every horizon over those instants."""
        device = NDProtocol(
            beacons=BeaconSchedule([Beacon(0, 4), Beacon(23, 4)], 50),
            reception=ReceptionSchedule(
                [ReceptionWindow(5, 12), ReceptionWindow(30, 15)], 100
            ),
        )
        offsets = list(range(-100, 100))
        for turnaround in (0, 3):
            for model in ReceptionModel:
                for horizon in range(1, 110):
                    self._check(
                        device, device, offsets, horizon,
                        model=model, turnaround=turnaround,
                    )

    def test_negative_and_scattered_offsets(self):
        protocol, _, horizon = _small_pair()
        for offsets in (
            [-7919, -13, 0, 4, 991, 65537, 3, 3],
            [0, 17, 4, 9_001, 23, 1 << 40, 55, 55, -3],
        ):
            self._check(protocol, protocol, offsets, horizon)

    def test_non_vectorizable_delegates_to_reference(self):
        adv = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 100.5, 2),
            reception=ReceptionSchedule.single_window(25, 600),
        )
        scan = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 150, 3),
            reception=ReceptionSchedule.single_window(40, 350),
        )
        self._check(adv, scan, list(range(0, 600, 7)), 4_000)

    def test_beacon_longer_than_receiver_period_is_painted(self):
        """A 700-unit beacon is longer than the receiver's reception
        period (350) but not its hyperperiod lcm(150, 350) = 1050, so
        the batch is painted, not delegated, and stays exact.  With
        ``test_beacon_longer_than_receiver_hyperperiod_delegates`` this
        pins both sides of ``_direction_vectorizable``."""
        adv = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 5_000, 700),
            reception=ReceptionSchedule.single_window(25, 600),
        )
        scan = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 150, 3),
            reception=ReceptionSchedule.single_window(40, 350),
        )
        duration = adv.beacons.beacons[0].duration
        assert scan.reception.period < duration <= scan.hyperperiod()
        offsets = list(range(0, 600, 11))
        params = SweepParams(adv, scan, 20_000, ReceptionModel.POINT)
        assert NumpyBackend()._discovery_vectors(params, offsets) is not None
        self._check(adv, scan, offsets, 20_000)

    def test_beacon_longer_than_receiver_hyperperiod_delegates(self):
        """A beacon longer than the receiver's hyperperiod (here
        lcm(150, 350) = 1050) sends the batch to the reference."""
        adv = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 5_000, 1_100),
            reception=ReceptionSchedule.single_window(25, 600),
        )
        scan = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 150, 3),
            reception=ReceptionSchedule.single_window(40, 350),
        )
        assert adv.beacons.beacons[0].duration > scan.hyperperiod()
        offsets = list(range(0, 600, 11))
        for model in ReceptionModel:
            params = SweepParams(adv, scan, 20_000, model)
            assert NumpyBackend()._discovery_vectors(params, offsets) is None
            self._check(adv, scan, offsets, 20_000, model=model)

    # The painter's own edge cases: each beacon candidate covers the
    # lanes whose key ``(red - rx_phase) mod H`` lies in its shifted
    # heard set (``repro.backends.numpy_kernel``).

    def test_transmitter_period_longer_than_receiver_hyperperiod(self):
        """Offsets 17, 117, 217 and 317 give the F->E lanes one key
        (17 mod 100) but four tx residues ``red`` mod 370, and so four
        different discovery times."""
        scan = NDProtocol(
            beacons=None, reception=ReceptionSchedule.single_window(30, 100)
        )
        adv = NDProtocol(
            beacons=BeaconSchedule([Beacon(0, 5), Beacon(200, 5)], 370),
            reception=None,
        )
        offsets = [*range(17, 370, 100), 3, 59, 99, 371, -230]
        for model in ReceptionModel:
            got = self._check(scan, adv, offsets, 5_000, model=model)
            times = {outcome.f_discovered_by_e for outcome in got[:4]}
            assert len(times) == 4 and None not in times

    def test_heard_sets_that_wrap_past_the_hyperperiod(self):
        """Windows at both ends of the period abut across it, so heard
        residues run up to ``H`` and on from 0, and every shifted set
        wraps; CONTAINMENT still tells the two abutting windows apart."""
        device = NDProtocol(
            beacons=BeaconSchedule([Beacon(40, 3)], 100),
            reception=ReceptionSchedule(
                [ReceptionWindow(0, 10), ReceptionWindow(88, 12)], 100
            ),
        )
        other = NDProtocol(
            beacons=BeaconSchedule([Beacon(0, 6), Beacon(19, 15)], 37),
            reception=ReceptionSchedule.single_window(9, 37),
        )
        offsets = list(range(-150, 150, 7))
        for turnaround in (0, 2):
            for model in ReceptionModel:
                self._check(
                    device, other, offsets, 3_000,
                    model=model, turnaround=turnaround,
                )
                self._check(
                    other, device, offsets, 3_000,
                    model=model, turnaround=turnaround,
                )

    def test_containment_packet_longer_than_every_segment(self):
        """A 20-unit packet fits in no 10-unit window: the heard set is
        empty, and nothing is ever discovered, boot region included."""
        scan = NDProtocol(
            beacons=BeaconSchedule([Beacon(50, 2)], 100),
            reception=ReceptionSchedule(
                [ReceptionWindow(0, 10), ReceptionWindow(30, 10)], 100
            ),
        )
        adv = NDProtocol(
            beacons=BeaconSchedule([Beacon(0, 20)], 130), reception=None
        )
        got = self._check(
            adv, scan, list(range(-100, 300, 3)), 4_000,
            model=ReceptionModel.CONTAINMENT,
        )
        assert all(outcome.e_discovered_by_f is None for outcome in got)

    def test_any_overlap_heard_set_reaching_below_zero(self):
        """A window starting at 0 hears ANY_OVERLAP packets from
        ``0 - d + 1``: the part below 0 is the previous hyperperiod's,
        read from the pattern's second copy of that window."""
        scan = NDProtocol(
            beacons=None,
            reception=ReceptionSchedule(
                [ReceptionWindow(0, 5), ReceptionWindow(60, 5)], 120
            ),
        )
        adv = NDProtocol(
            beacons=BeaconSchedule([Beacon(0, 25)], 97), reception=None
        )
        got = self._check(
            adv, scan, list(range(-130, 130)), 3_000,
            model=ReceptionModel.ANY_OVERLAP,
        )
        assert all(outcome.e_discovered_by_f is not None for outcome in got)

    def test_exact_boot_hit_before_a_later_pattern_hit(self, monkeypatch):
        """The scanner's beacon at -3 never went on air, so at rx phase 0
        it listens at t = 1, where its pattern (blocked by that beacon
        one period later) says "not heard".  The exact fallback hears
        E's beacon there, before the residue drift of E's period brings
        a pattern hit at t = 203."""
        from repro.backends import numpy_kernel
        from repro.simulation.analytic import packet_heard

        scan = NDProtocol(
            beacons=BeaconSchedule([Beacon(97, 6)], 100),
            reception=ReceptionSchedule.single_window(50, 100),
        )
        adv = NDProtocol(
            beacons=BeaconSchedule([Beacon(1, 1)], 101), reception=None
        )
        heard = []

        def recording(*args):
            heard.append(packet_heard(*args))
            return heard[-1]

        monkeypatch.setattr(numpy_kernel, "packet_heard", recording)
        offsets = list(range(-5, 6))
        for turnaround in (0, 2):
            got = self._check(
                adv, scan, offsets, 1_000, turnaround=turnaround
            )
            assert got[offsets.index(0)].e_discovered_by_f == 1
            assert True in heard
            heard.clear()
        # The pattern misses residues 1 (t = 1) and 2 (t = 102) and hears
        # residue 3 (t = 203).
        lo, length = get_listening_cache(scan).heard_intervals(
            ReceptionModel.POINT, 1
        )
        residues = {r for a, n in zip(lo, length) for r in range(a, a + n)}
        assert 1 not in residues and 2 not in residues and 3 in residues

    def test_horizon_ending_inside_a_block(self):
        """Sparse windows keep lanes unresolved over many doubling
        blocks; horizons across them cut blocks anywhere."""
        scan = NDProtocol(
            beacons=BeaconSchedule([Beacon(500, 4)], 1_009),
            reception=ReceptionSchedule.single_window(3, 1_009),
        )
        adv = NDProtocol(
            beacons=BeaconSchedule([Beacon(0, 2), Beacon(11, 2)], 37),
            reception=None,
        )
        offsets = list(range(0, 1_009, 13))
        for horizon in range(100, 12_000, 613):
            for model in ReceptionModel:
                got = self._check(adv, scan, offsets, horizon, model=model)
        assert {outcome.e_discovered_by_f is None for outcome in got} == {
            True, False
        }

    def test_few_and_many_lanes_against_many_intervals(self):
        """A receiver with 40 heard intervals per hyperperiod: 5 lanes
        (most runs of sorted keys empty) and 400 lanes (runs of many
        keys) both agree with the reference."""
        scan = NDProtocol(
            beacons=BeaconSchedule([Beacon(7, 3)], 40),
            reception=ReceptionSchedule(
                [ReceptionWindow(10 * i, 4) for i in range(40)], 400
            ),
        )
        adv = NDProtocol(
            beacons=BeaconSchedule([Beacon(0, 2), Beacon(50, 3)], 403),
            reception=None,
        )
        few = [3, 171, -40, 999, 12_345]
        many = list(range(-200, 1_400, 4))
        for model in ReceptionModel:
            for turnaround in (0, 2):
                for offsets in (few, many):
                    self._check(
                        adv, scan, offsets, 40_000,
                        model=model, turnaround=turnaround,
                    )

    def test_boot_pairs_exact_call_count_is_pinned(self, monkeypatch):
        """The painter sends exactly the boot pairs the per-candidate
        loop it replaced sent to the scalar ``packet_heard``: before
        each lane's pattern hit, in candidate order."""
        from repro.backends import numpy_kernel
        from repro.simulation.analytic import packet_heard

        calls = []

        def counting(*args):
            calls.append(args)
            return packet_heard(*args)

        monkeypatch.setattr(numpy_kernel, "packet_heard", counting)
        protocol, offsets, horizon = _small_pair()
        self._check(protocol, protocol, offsets, horizon, turnaround=9)
        assert len(calls) == 1
        calls.clear()
        offsets = list(range(0, 9_000, 13))
        self._check(protocol, protocol, offsets, horizon, turnaround=7)
        assert len(calls) == 18

    def test_enumeration_bit_identical_with_guard_parity(self):
        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        reference = critical_offsets(protocol, protocol, omega=32)
        assert reference
        backend = NumpyBackend()
        params = SweepParams(protocol, protocol, 0, ReceptionModel.POINT)
        assert backend.enumerate_critical_offsets(
            params, omega=32
        ) == reference
        undersized = max(1, len(reference) // 4)
        with pytest.raises(ValueError) as numpy_err:
            backend.enumerate_critical_offsets(
                params, omega=32, max_count=undersized
            )
        with pytest.raises(ValueError) as ref_err:
            critical_offsets(
                protocol, protocol, omega=32, max_count=undersized
            )
        assert str(numpy_err.value) == str(ref_err.value)


@pytest.mark.skipif(not have_numpy(), reason="NumPy extra not installed")
class TestPatternArraysAccessor:
    """ListeningCache.pattern_arrays(): the one sanctioned path to the
    int64 pattern arrays (PR 8 satellite -- previously kernels poked a
    private attribute onto foreign cache objects)."""

    def test_matches_pattern_and_is_memoized(self):
        import numpy as np

        from repro.parallel import get_listening_cache

        protocol, _, _ = _small_pair()
        cache = get_listening_cache(protocol, 0)
        assert cache.enabled
        starts, ends = cache.pattern_arrays()
        assert starts.dtype == np.int64 and ends.dtype == np.int64
        assert starts.tolist() == list(cache._starts)
        assert ends.tolist() == list(cache._ends)
        again = cache.pattern_arrays()
        assert again[0] is starts and again[1] is ends  # built once

    def test_numpy_less_environment_raises_cleanly(self, monkeypatch):
        from repro.parallel.cache import ListeningCache

        protocol, _, _ = _small_pair()
        cache = ListeningCache(protocol)
        assert cache.enabled
        monkeypatch.setattr(_np, "np", None)
        with pytest.raises(BackendUnavailable, match="pattern_arrays"):
            cache.pattern_arrays()


class TestCustomBackendInstances:
    def test_unregistered_instance_runs_in_process(self):
        calls = []

        class Recording(SweepBackend):
            name = "recording"

            def evaluate_offsets_batch(self, params, offsets):
                calls.append(len(list(offsets)))
                return PythonBackend().evaluate_offsets_batch(params, offsets)

        protocol, offsets, horizon = _small_pair()
        serial = evaluate_offsets(protocol, protocol, offsets, horizon)
        executor = ParallelSweep(jobs=2, backend=Recording())
        assert executor.evaluate_offsets(
            protocol, protocol, offsets, horizon
        ) == serial
        assert calls == [len(offsets)]


class TestEnumerateCriticalOffsets:
    """Unit tests of the second kernel-dispatched operation (PR 5)."""

    def test_base_default_is_the_reference(self):
        """A custom kernel that never opts in still enumerates exactly:
        the abstract base delegates to the python reference."""

        class Minimal(SweepBackend):
            name = "minimal"

            def evaluate_offsets_batch(self, params, offsets):
                return []

        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        params = SweepParams(protocol, protocol, 0, ReceptionModel.POINT)
        assert Minimal().enumerate_critical_offsets(
            params, omega=32
        ) == critical_offsets(protocol, protocol, omega=32)

    def test_backend_kwarg_resolves_names(self):
        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        reference = critical_offsets(protocol, protocol, omega=32)
        assert reference  # non-degenerate workload
        for backend in ("python", "auto", get_backend("python")):
            assert critical_offsets(
                protocol, protocol, omega=32, backend=backend
            ) == reference

    def test_pooled_delegates_in_process_without_booting(self):
        """Under ``jobs > 1`` enumeration runs the session's kernel in
        the parent -- the shared pool is retained but never booted."""
        from repro.api import RuntimeProfile, Session
        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        params = SweepParams(protocol, protocol, 0, ReceptionModel.POINT)
        with Session(RuntimeProfile(jobs=2, backend="python")) as session:
            assert session.backend.enumerate_critical_offsets(
                params, omega=32
            ) == critical_offsets(protocol, protocol, omega=32)
            assert not session._engine().pool().started

    @pytest.mark.skipif(not have_numpy(), reason="NumPy extra not installed")
    def test_numpy_bit_identical_including_sort_regime(self, monkeypatch):
        """Both dedup regimes of the vectorized kernel (bitmap scatter
        and sort-based) return the reference's exact list."""
        from repro.backends import numpy_kernel
        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        reference = critical_offsets(protocol, protocol, omega=32)
        assert critical_offsets(
            protocol, protocol, omega=32, backend="numpy"
        ) == reference
        # Force the sort path by shrinking the bitmap threshold.
        monkeypatch.setattr(numpy_kernel, "_BITMAP_MAX_HYPER", 0)
        assert critical_offsets(
            protocol, protocol, omega=32, backend="numpy"
        ) == reference

    @pytest.mark.skipif(not have_numpy(), reason="NumPy extra not installed")
    def test_numpy_delegates_beyond_int_headroom(self, monkeypatch):
        from repro.backends import numpy_kernel
        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        monkeypatch.setattr(numpy_kernel, "_INT_BOUND", 1)
        assert critical_offsets(
            protocol, protocol, omega=32, backend="numpy"
        ) == critical_offsets(protocol, protocol, omega=32)

    def test_verified_worst_case_threads_enumeration_backend(self):
        """The worst-case pipeline is bit-identical whichever kernel
        enumerates (and sweeps): python vs auto-detected."""
        from repro.api import RunSpec, RuntimeProfile, Session

        spec = RunSpec(
            pair={"kind": "symmetric", "eta": 0.05}, omega=32,
            des_spot_checks=4,
        )
        with Session(RuntimeProfile(backend="python", jobs=1)) as session:
            reference = session.worst_case(spec)
        with Session(RuntimeProfile(backend="auto", jobs=1)) as session:
            detected = session.worst_case(spec)
        assert detected.raw == reference.raw


class TestCostModelCalibration:
    def test_components_sum_to_default_cost(self):
        scenario = dense_network(n_devices=4, eta=0.02)
        beacon, window = cost_components(scenario.protocols, scenario.horizon)
        assert beacon > 0 and window > 0
        assert math.isclose(
            default_simulation_cost(scenario.protocols, scenario.horizon),
            beacon + window,
        )

    def test_fit_recovers_exact_synthetic_weights(self):
        rows = [
            {"beacon_component": b, "window_component": w,
             "seconds": 3e-6 * b + 7e-6 * w}
            for b, w in [(1e5, 2e4), (4e5, 1e5), (2e5, 9e5), (8e5, 3e5)]
        ]
        w_beacon, w_window = fit_cost_weights({"per_scenario": rows})
        assert math.isclose(w_beacon, 3e-6, rel_tol=1e-6)
        assert math.isclose(w_window, 7e-6, rel_tol=1e-6)

    def test_fit_collinear_falls_back_to_shared_scale(self):
        rows = [
            {"beacon_component": b, "window_component": 2 * b,
             "seconds": 5e-6 * 3 * b}
            for b in (1e5, 2e5, 3e5)
        ]
        w_beacon, w_window = fit_cost_weights({"per_scenario": rows})
        assert w_beacon == w_window > 0

    def test_fit_clamps_negative_solutions(self):
        rows = [
            {"beacon_component": 1e5, "window_component": 1e3, "seconds": 1.0},
            {"beacon_component": 1e3, "window_component": 1e5, "seconds": -1.0},
        ]
        w_beacon, w_window = fit_cost_weights({"per_scenario": rows})
        assert w_beacon >= 0 and w_window >= 0

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_cost_weights({"per_scenario": []})

    def test_bench_json_roundtrips_through_fit(self, tmp_path):
        import json

        payload = {
            "per_scenario": [
                {"beacon_component": 2e5, "window_component": 1e4,
                 "seconds": 0.4},
                {"beacon_component": 5e4, "window_component": 8e4,
                 "seconds": 0.2},
            ]
        }
        path = tmp_path / "BENCH_parallel.json"
        path.write_text(json.dumps(payload))
        assert fit_cost_weights(path) == fit_cost_weights(payload)

    def test_fit_rejects_payload_without_per_scenario_rows(self):
        # A pre-PR-3 bench payload must produce a clear error, not an
        # opaque TypeError from iterating the dict's keys.
        with pytest.raises(ValueError, match="per_scenario"):
            fit_cost_weights({"serial_seconds": 1.0, "speedup": 4.2})

class TestCLIBackendFlag:
    def test_sweep_accepts_backend(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--eta", "0.05", "--samples", "64", "--backend", "python",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend=python" in out

    def test_validate_accepts_backend(self, capsys):
        from repro.cli import main

        assert main([
            "validate", "--eta", "0.05", "--backend", "auto",
        ]) == 0
        assert "DES agrees       : True" in capsys.readouterr().out

    def test_sweep_with_jobs_boots_no_pool(self, capsys):
        """``sweep --jobs 2`` runs in-process: it starts no worker and
        prints the ``--jobs 1`` report."""
        from repro.backends import shutdown_pooled_backends
        from repro.cli import main

        shutdown_pooled_backends()
        argv = ["sweep", "--eta", "0.05", "--samples", "64"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        assert shutdown_pooled_backends() == 0
        assert "jobs=2" in pooled
        assert pooled.replace("jobs=2", "jobs=1") == serial

    def test_grid_runs_on_pool_and_pooled_name_rejected(self, capsys):
        from repro.cli import main

        assert main([
            "grid", "--devices", "3", "--etas", "0.05", "--jobs", "2",
        ]) == 0
        assert "scenario" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["grid", "--devices", "3", "--backend", "pooled"])

    @pytest.mark.parametrize("argv", [
        ["grid", "--devices", "3", "--schedule", "steal"],
        ["campaign", "run", "campaign.json", "--entry-jobs", "2"],
        ["grid", "--devices", "3", "--calibrate"],
        ["grid", "--devices", "3", "--profile", "p.toml", "--save-profile"],
    ], ids=["schedule", "entry-jobs", "calibrate", "save-profile"])
    def test_removed_runtime_flags_rejected(self, argv, capsys):
        """``--jobs`` is the only parallelism flag left, and no flag
        re-fits or persists cost weights."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["gpu", "native"])
    def test_bad_backend_rejected(self, name):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--eta", "0.05", "--backend", name])
        assert excinfo.value.code == 2

    def test_unavailable_backend_exits_cleanly(self, monkeypatch, capsys):
        """--backend numpy on a base install: a one-line error and exit
        code 2, not a BackendUnavailable traceback."""
        from repro.cli import main

        monkeypatch.setattr(_np, "np", None)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--eta", "0.05", "--samples", "64",
                  "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "not available" in capsys.readouterr().err
