"""Tests of the parallel sweep engine and the PR-1 fidelity bugfixes.

The load-bearing property: everything the parallel subsystem computes --
cached listening-set decisions, chunked sweeps, grid runs -- must be
*bit-identical* to the serial reference path, for arbitrary protocol
pairs, reception models and turnaround guards.
"""

import random
from bisect import bisect_right

import pytest

from repro.api import RunSpec, RuntimeProfile, Session
from repro.core.optimal import synthesize_symmetric
from repro.core.sequences import (
    Beacon,
    BeaconSchedule,
    NDProtocol,
    ReceptionSchedule,
    ReceptionWindow,
)
from repro.backends import have_numpy, PythonBackend, SweepParams
from repro.parallel import (
    derive_seed,
    ListeningCache,
    ParallelSweep,
)
from repro.simulation import (
    evaluate_offsets,
    mutual_discovery_times,
    NetworkResult,
    ReceptionModel,
    simulate_pair,
    simulate_pair_mutual_assistance,
    summarize_outcomes,
    sweep_network_grid,
    sweep_offsets,
    verified_worst_case,
)
from repro.simulation.analytic import packet_heard
from repro.simulation.channel import Channel
from repro.simulation.engine import Simulator
from repro.simulation.node import Node
from repro.workloads import dense_network, scenario_grid


needs_numpy = pytest.mark.skipif(not have_numpy(), reason="needs NumPy")


def random_protocol(rng: random.Random, role: str = "both") -> NDProtocol:
    """A random small-period protocol; ``role`` picks the sequences."""
    beacons = None
    reception = None
    if role in ("both", "tx"):
        n = rng.randint(1, 3)
        gap = rng.randint(40, 400)
        duration = rng.randint(2, min(12, gap - 1))
        beacons = BeaconSchedule.uniform(n, gap, duration)
    if role in ("both", "rx"):
        period = rng.randint(100, 600)
        duration = rng.randint(15, 80)
        start = rng.randint(0, period - duration)
        reception = ReceptionSchedule.single_window(duration, period, start)
    return NDProtocol(beacons=beacons, reception=reception)


def _random_boot_receiver(
    rng: random.Random, periods: list[int]
) -> NDProtocol:
    """A random integer receiver with irregular beacons and windows."""
    beacon_period = rng.choice(periods)
    times = sorted(rng.sample(range(0, beacon_period, 15), rng.randint(1, 4)))
    beacons = BeaconSchedule(
        [Beacon(time, rng.randint(1, 12)) for time in times], beacon_period
    )
    window_period = rng.choice(periods)
    starts = sorted(rng.sample(range(0, window_period, 30), rng.randint(1, 2)))
    windows = [
        ReceptionWindow(start, rng.randint(1, 29)) for start in starts
    ]
    return NDProtocol(
        beacons=beacons, reception=ReceptionSchedule(windows, window_period)
    )


def _latest_pre_zero_start(receiver: NDProtocol, rx_phase: int) -> int:
    """Brute force: the latest own beacon start before time 0."""
    period = receiver.beacons.period
    instance = -rx_phase // period - 1
    latest = None
    while True:
        base = rx_phase + instance * period
        starts = [base + b.time for b in receiver.beacons.beacons]
        if min(starts) >= 0:
            return latest
        latest = max(t for t in starts if t < 0)
        instance += 1


def random_pair(rng: random.Random) -> tuple[NDProtocol, NDProtocol]:
    shape = rng.choice(["both/both", "both/both", "both/both", "tx/rx"])
    if shape == "tx/rx":
        return random_protocol(rng, "tx"), random_protocol(rng, "rx")
    return random_protocol(rng, "both"), random_protocol(rng, "both")


def _pattern_heard(cache, rx_phase, start, end, model):
    """The decode decision read off the cache's pattern at the phase
    residue: one ``bisect_right`` over the segment starts."""
    lo = (start - rx_phase) % cache.hyper
    starts, ends = cache._starts, cache._ends
    i = bisect_right(starts, lo) - 1
    covers_lo = i >= 0 and ends[i] > lo
    if model is ReceptionModel.POINT:
        return covers_lo
    hi = lo + (end - start)
    if model is ReceptionModel.ANY_OVERLAP:
        return covers_lo or (i + 1 < len(starts) and starts[i + 1] < hi)
    # CONTAINMENT: one segment spans the packet, abutting ones do not.
    return i >= 0 and ends[i] >= hi


class TestListeningCache:
    def test_decisions_bit_identical_random_protocols(self):
        """Property test: past the boot threshold, the pattern read at
        the phase residue decides every reception model exactly as
        ``analytic.packet_heard`` does, for random receivers, times and
        guards."""
        rng = random.Random(42)
        for _ in range(40):
            receiver = random_protocol(rng, "both")
            turnaround = rng.choice([0, 0, 1, 7])
            cache = ListeningCache(receiver, turnaround)
            assert cache.enabled
            for _ in range(60):
                start = rng.randint(cache.threshold, 5_000)
                length = rng.randint(1, 20)
                phase = rng.randint(0, 2_000)
                for model in ReceptionModel:
                    expected = packet_heard(
                        receiver, phase, start, start + length, model,
                        turnaround,
                    )
                    got = _pattern_heard(
                        cache, phase, start, start + length, model
                    )
                    assert got == expected, (
                        receiver, phase, start, length, model, turnaround
                    )

    @needs_numpy
    def test_boot_screen_clears_only_exact_pattern_decisions(self):
        """Soundness of ``ListeningCache.boot_ends``: before the boot
        threshold, wherever the screen clears a lane (the pattern says
        "heard", or the query starts at or past the lane's boot end),
        the pattern decision equals the exact ``packet_heard`` in all
        three reception models."""
        rng = random.Random(1017)
        periods = [60, 90, 120, 150, 180, 240, 300, 360]
        cleared = 0
        for _ in range(30):
            receiver = _random_boot_receiver(rng, periods)
            turnaround = rng.choice([0, 7, 150])
            cache = ListeningCache(receiver, turnaround)
            assert cache.enabled
            threshold = cache.threshold
            # A query a whole number of hyperperiods later, past the
            # threshold, reads the pattern at the same residue.
            shift = -(-threshold // cache.hyper) * cache.hyper
            phases = [rng.randint(-2_000, 2_000) for _ in range(12)]
            boot_ends = cache.boot_ends(phases).tolist()
            for phase, boot_end in zip(phases, boot_ends):
                assert boot_end == _latest_pre_zero_start(
                    receiver, phase
                ) + threshold
                for _ in range(12):
                    start = rng.randrange(threshold)
                    length = rng.randint(1, 20)
                    for model in ReceptionModel:
                        pattern = packet_heard(
                            receiver, phase, start + shift,
                            start + shift + length, model, turnaround,
                        )
                        if not pattern and start < boot_end:
                            continue  # flagged: the exact path decides
                        cleared += 1
                        exact = packet_heard(
                            receiver, phase, start, start + length, model,
                            turnaround,
                        )
                        assert pattern == exact, (
                            receiver, turnaround, phase, start, length,
                            model,
                        )
        assert cleared > 1_000

    @needs_numpy
    def test_boot_screen_bounds_exact_calls(self, monkeypatch):
        """A numpy critical sweep of Disco 7x13 sends some queries, and
        at most one per ten offsets, to the exact scalar
        ``analytic.packet_heard``."""
        from repro.backends import numpy_kernel
        from repro.protocols import Disco, Role
        from repro.simulation import critical_offsets

        proto = Disco(7, 13)
        protocol_e, protocol_f = proto.device(Role.E), proto.device(Role.F)
        offsets = critical_offsets(protocol_e, protocol_f)
        horizon = 12 * protocol_e.hyperperiod()
        calls = []

        def counting(*args):
            calls.append(args)
            return packet_heard(*args)

        monkeypatch.setattr(numpy_kernel, "packet_heard", counting)
        report = ParallelSweep(jobs=1, backend="numpy").sweep_offsets(
            protocol_e, protocol_f, offsets, horizon
        )
        assert report.offsets_evaluated == len(offsets) > 1_000
        assert 0 < len(calls) <= len(offsets) / 10

    def test_non_integer_schedule_falls_back(self):
        """A non-integer reception schedule gets no pattern, and the
        numpy kernel decides its packets exactly as the per-offset
        reference does, under every reception model."""
        receiver = NDProtocol(
            beacons=None,
            reception=ReceptionSchedule.single_window(25.5, 100.0),
        )
        transmitter = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 37, 1), reception=None
        )
        assert not ListeningCache(receiver).enabled
        if not have_numpy():
            return
        offsets = [0, 10, 30, 99, 130]
        horizon = 2_000
        kernel = ParallelSweep(jobs=1, backend="numpy")
        for model in ReceptionModel:
            got = kernel.evaluate_offsets(
                transmitter, receiver, offsets, horizon, model
            )
            assert got == [
                mutual_discovery_times(
                    transmitter, receiver, offset, horizon, model
                )
                for offset in offsets
            ], model

    @needs_numpy
    def test_evaluator_matches_mutual_discovery_times(self):
        """The numpy kernel, pattern path and exact fallback alike,
        equals ``mutual_discovery_times`` offset by offset on random
        pairs, models and guards."""
        rng = random.Random(7)
        kernel = ParallelSweep(jobs=1, backend="numpy")
        for _ in range(12):
            protocol_e, protocol_f = random_pair(rng)
            turnaround = rng.choice([0, 0, 5])
            model = rng.choice(list(ReceptionModel))
            horizon = 30_000
            offsets = [rng.randint(0, 10_000) for _ in range(25)]
            got = kernel.evaluate_offsets(
                protocol_e, protocol_f, offsets, horizon, model, turnaround
            )
            for offset, outcome in zip(offsets, got, strict=True):
                assert outcome == mutual_discovery_times(
                    protocol_e, protocol_f, offset, horizon, model, turnaround
                )


class TestBatchEntryPoints:
    def test_python_kernel_batch_is_the_reference_list(self):
        """The ``python`` kernel's batch is a list (callers take its
        ``len()``) equal to ``evaluate_offsets`` over the same offsets."""
        rng = random.Random(5)
        protocol_e, protocol_f = random_pair(rng)
        offsets = [rng.randint(0, 10_000) for _ in range(40)]
        for model in ReceptionModel:
            params = SweepParams(protocol_e, protocol_f, 25_000, model, 7)
            batch = PythonBackend().evaluate_offsets_batch(params, offsets)
            assert type(batch) is list
            assert batch == evaluate_offsets(
                protocol_e, protocol_f, offsets, 25_000, model, 7
            )

    def test_sweep_is_summarize_of_evaluate(self):
        rng = random.Random(3)
        protocol_e, protocol_f = random_pair(rng)
        offsets = [rng.randint(0, 10_000) for _ in range(50)]
        horizon = 25_000
        outcomes = evaluate_offsets(protocol_e, protocol_f, offsets, horizon)
        assert [o.offset for o in outcomes] == offsets
        assert summarize_outcomes(outcomes) == sweep_offsets(
            protocol_e, protocol_f, offsets, horizon
        )

    def test_summarize_ties_break_to_earliest(self):
        protocol, _ = synthesize_symmetric(32, 0.05)
        # Duplicate offsets give identical outcomes: the first occurrence
        # must win the worst-offset slots.
        report = sweep_offsets(protocol, protocol, [500, 500], 200_000)
        assert report.worst_offset_one_way == 500
        assert report.offsets_evaluated == 2


class TestParallelSweep:
    def test_bit_identical_to_serial_random_pairs(self):
        """Property test: a ``jobs=2`` executor's sweep reproduces the
        serial report exactly -- counts, worsts, float means and
        tie-broken worst offsets."""
        rng = random.Random(11)
        executor = ParallelSweep(jobs=2)
        for _ in range(3):
            protocol_e, protocol_f = random_pair(rng)
            offsets = [rng.randint(0, 20_000) for _ in range(120)]
            horizon = 25_000
            model = rng.choice(list(ReceptionModel))
            serial = sweep_offsets(
                protocol_e, protocol_f, offsets, horizon, model
            )
            parallel = executor.sweep_offsets(
                protocol_e, protocol_f, offsets, horizon, model
            )
            assert parallel == serial

    def test_float_period_protocols_bit_identical(self):
        """Regression: non-integer schedule periods must not drift.

        The kernel's beacon enumeration has to use the
        ``reduced + instance * period`` multiplication of
        ``iter_beacons_infinite`` -- a running ``+= period`` float sum
        accumulates error and lands beacons on the wrong side of window
        boundaries -- and float discovery times must flow through the
        one shared ``summarize_outcomes`` so the means do not
        re-associate."""
        adv = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 100.1, 2),
            reception=ReceptionSchedule.single_window(25, 600),
        )
        scan = NDProtocol(
            beacons=BeaconSchedule.uniform(2, 150, 3),
            reception=ReceptionSchedule.single_window(40.5, 350.25),
        )
        offsets = list(range(0, 700))
        horizon = 5_000
        serial = sweep_offsets(adv, scan, offsets, horizon)
        parallel = ParallelSweep(jobs=2).sweep_offsets(
            adv, scan, offsets, horizon
        )
        assert parallel == serial

    def test_jobs_one_is_serial_path(self):
        protocol, design = synthesize_symmetric(32, 0.05)
        offsets = list(range(0, 50_000, 1_111))
        horizon = design.worst_case_latency * 3
        assert ParallelSweep(jobs=1).sweep_offsets(
            protocol, protocol, offsets, horizon
        ) == sweep_offsets(protocol, protocol, offsets, horizon)

    def test_verified_worst_case_parallel_identical(self):
        protocol, design = synthesize_symmetric(32, 0.05)
        horizon = design.worst_case_latency * 3
        serial = verified_worst_case(protocol, protocol, horizon, omega=32)
        with Session(RuntimeProfile(jobs=2)) as session:
            parallel = session.worst_case(RunSpec(
                pair=(protocol, protocol), horizon=horizon, omega=32,
            )).raw
        assert parallel.analytic == serial.analytic
        assert parallel.offsets_checked == serial.offsets_checked
        assert parallel.des_agrees and serial.des_agrees

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelSweep(jobs=-1)


class TestNetworkGrid:
    def test_scenario_grid_row_major_expansion(self):
        grid = scenario_grid(
            dense_network, n_devices=[3, 4], eta=[0.02, 0.05]
        )
        assert [
            (len(s.protocols), round(s.protocols[0].eta, 2)) for s in grid
        ] == [(3, 0.02), (3, 0.05), (4, 0.02), (4, 0.05)]

    def test_scenario_grid_validates_axes(self):
        with pytest.raises(ValueError):
            scenario_grid(dense_network)
        with pytest.raises(ValueError):
            scenario_grid(dense_network, n_devices=[])
        with pytest.raises(TypeError):
            scenario_grid(dense_network, n_devices=3)

    def test_grid_results_identical_serial_vs_parallel(self):
        grid = scenario_grid(
            dense_network, n_devices=[3, 4], eta=[0.05], seed=[0, 1]
        )
        serial = sweep_network_grid(grid, base_seed=9)
        parallel = ParallelSweep(jobs=2).map_scenarios(grid, base_seed=9)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a == b

    def test_seeds_derive_from_global_index(self):
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 5) == derive_seed(1, 5)
        assert derive_seed(2, 5) != derive_seed(1, 5)


class TestSpotCheckSelection:
    """Regression: the DES spot-check selection loop drew random
    indices until the set was full, so duplicate-heavy offset lists
    (fewer unique values than the target size) spun it forever, and
    collision retries made the draw count an accident of the input."""

    def select(self, offsets, required=(), count=16):
        from repro.simulation.runner import _select_spot_check_offsets

        return _select_spot_check_offsets(offsets, required, count)[0]

    def test_duplicate_heavy_offsets_terminate(self):
        # 30 copies of one value plus one other: the old loop's target
        # of min(16, 31) = 16 unique offsets was unreachable.
        from repro.simulation.runner import _select_spot_check_offsets

        offsets = [7] * 30 + [9]
        assert _select_spot_check_offsets(offsets, (), 16) == ([7, 9], [0, 30])

    def test_selection_is_deterministic_and_duplicate_free(self):
        offsets = [offset % 40 for offset in range(0, 400, 7)]
        first = self.select(offsets, required=(11, 25), count=10)
        second = self.select(offsets, required=(11, 25), count=10)
        assert first == second
        assert len(first) == len(set(first)) == 10
        assert {11, 25}.issubset(first)
        assert all(offset in offsets for offset in first)

    def test_required_offsets_always_kept(self):
        offsets = list(range(100))
        chosen = self.select(offsets, required=(99, 0), count=4)
        assert {0, 99}.issubset(chosen)
        assert len(chosen) == 4

    def test_none_required_entries_skipped(self):
        chosen = self.select([1, 2, 3], required=(None, 2), count=2)
        assert 2 in chosen
        assert len(chosen) == 2

    def test_verified_worst_case_spot_checks_in_parallel(self):
        """End to end: the parallel spot-check path returns the same
        verdict and report as the serial one."""
        protocol, design = synthesize_symmetric(32, 0.05)
        horizon = design.worst_case_latency * 3
        serial = verified_worst_case(
            protocol, protocol, horizon, omega=32, des_spot_checks=6
        )
        with Session(RuntimeProfile(jobs=2)) as session:
            parallel = session.worst_case(RunSpec(
                pair=(protocol, protocol), horizon=horizon, omega=32,
                des_spot_checks=6,
            )).raw
        assert serial == parallel
        assert serial.des_agrees

    def test_short_spot_check_batch_stays_in_process(self):
        """A ``jobs > 1`` spot-check batch replays in-process: the
        shared pool is resolved but never booted, and the replays are
        the serial ones."""
        from repro.backends import shutdown_pooled_backends

        protocol, design = synthesize_symmetric(32, 0.05)
        horizon = design.worst_case_latency
        offsets = [0, 1_234, 56_789, 111_111]
        shutdown_pooled_backends()
        executor = ParallelSweep(jobs=2)
        got = executor.spot_check_pairs(protocol, protocol, offsets, horizon)
        assert not executor.pool().started
        assert got == ParallelSweep(jobs=1).spot_check_pairs(
            protocol, protocol, offsets, horizon
        )
        assert got == [
            mutual_discovery_times(protocol, protocol, offset, horizon)
            for offset in offsets
        ]

    def test_float_schedule_spot_checks_stay_in_process(self):
        """Non-integer schedule periods (no listening pattern, the
        slowest replays) still replay in-process under ``jobs=2``: no
        worker boots, and each replay is the reference one."""
        from repro.backends import shutdown_pooled_backends

        adv = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 100.1, 2),
            reception=ReceptionSchedule.single_window(25, 600),
        )
        scan = NDProtocol(
            beacons=BeaconSchedule.uniform(2, 150, 3),
            reception=ReceptionSchedule.single_window(40.5, 350.25),
        )
        offsets = [0, 37, 211, 599]
        horizon = 40_000
        shutdown_pooled_backends()
        got = ParallelSweep(jobs=2).spot_check_pairs(adv, scan, offsets, horizon)
        assert shutdown_pooled_backends() == 0
        assert got == [
            mutual_discovery_times(adv, scan, offset, horizon)
            for offset in offsets
        ]


class TestMutualAssistanceFidelity:
    """Regression: the assistance runner silently dropped the fidelity
    knobs its sibling ``simulate_pair`` supports."""

    def test_accepts_and_forwards_seeded_jitter(self):
        protocol, design = synthesize_symmetric(32, 0.02)
        horizon = design.worst_case_latency * 4
        a = simulate_pair_mutual_assistance(
            protocol, protocol, 7_777, horizon,
            advertising_jitter=500, seed=9,
        )
        b = simulate_pair_mutual_assistance(
            protocol, protocol, 7_777, horizon,
            advertising_jitter=500, seed=9,
        )
        c = simulate_pair_mutual_assistance(
            protocol, protocol, 7_777, horizon,
            advertising_jitter=500, seed=10,
        )
        assert a == b
        assert a != c  # different seed must move the jittered schedule

    def test_drift_changes_timing_but_still_discovers(self):
        protocol, design = synthesize_symmetric(32, 0.02)
        horizon = design.worst_case_latency * 4
        ideal = simulate_pair_mutual_assistance(
            protocol, protocol, 12_345, horizon
        )
        drifting = simulate_pair_mutual_assistance(
            protocol, protocol, 12_345, horizon, drift_ppm_f=5_000
        )
        # A severe crystal error must actually reach the simulation: the
        # rendezvous moves (before the fix the knob did not exist).  One
        # direction can miss entirely under 5000 ppm -- the plain pair
        # runner agrees -- but discovery must not vanish altogether.
        assert drifting != ideal
        assert drifting.one_way is not None
        plain = simulate_pair(
            protocol, protocol, 12_345, horizon, drift_ppm_f=5_000
        )
        assert drifting.f_discovered_by_e == plain.f_discovered_by_e

    def test_defaults_unchanged(self):
        """With all knobs at defaults the fixed runner is the old one."""
        protocol, design = synthesize_symmetric(32, 0.02)
        horizon = design.worst_case_latency * 4
        outcome = simulate_pair_mutual_assistance(
            protocol, protocol, 123_457, horizon
        )
        plain = simulate_pair(protocol, protocol, 123_457, horizon)
        assert outcome.one_way == plain.one_way
        assert outcome.two_way is not None
        assert outcome.two_way <= outcome.one_way + int(
            design.reception.period
        )


class TestScheduleResponseTx:
    """Regression: the assist hook used the private ``Node._begin_tx``."""

    def make_node(self):
        protocol, _ = synthesize_symmetric(32, 0.05)
        sim = Simulator()
        channel = Channel()
        node = Node("n", protocol, sim, channel)
        return sim, channel, node

    def test_schedules_a_real_transmission(self):
        sim, channel, node = self.make_node()
        node.schedule_response_tx(32, at=100)
        sim.run_until(200)
        assert channel.total_transmissions == 1

    def test_defaults_to_now(self):
        sim, channel, node = self.make_node()
        node.schedule_response_tx(32)
        sim.run_until(50)
        assert channel.total_transmissions == 1

    def test_past_time_rejected(self):
        sim, channel, node = self.make_node()
        sim.run_until(500)
        with pytest.raises(ValueError):
            node.schedule_response_tx(32, at=100)


class TestQuantileNearestRank:
    """Regression: ``int(q*n)`` truncation overshot at exact-rank
    boundaries (the median of an even-sized sample took the upper
    element)."""

    def make_result(self, latencies):
        result = NetworkResult(n_nodes=2, horizon=1_000)
        for i, latency in enumerate(latencies):
            result.discovery_times[(f"a{i}", f"b{i}")] = latency
        return result

    def test_even_sample_median_is_lower_of_the_two(self):
        result = self.make_result([1, 2, 3, 4])
        assert result.quantile(0.5) == 2

    def test_boundaries_and_interior(self):
        result = self.make_result([10, 20, 30, 40])
        assert result.quantile(0.0) == 10
        assert result.quantile(0.25) == 10
        assert result.quantile(0.26) == 20
        assert result.quantile(1.0) == 40

    def test_empty_returns_none(self):
        assert NetworkResult(n_nodes=2, horizon=1).quantile(0.5) is None

    def test_matches_stats_module_semantics(self):
        from repro.analysis.stats import _quantile

        rng = random.Random(5)
        latencies = sorted(rng.randint(1, 1000) for _ in range(17))
        result = self.make_result(latencies)
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert result.quantile(q) == _quantile(latencies, q)
