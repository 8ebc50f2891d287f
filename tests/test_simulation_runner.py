"""Tests of the event-driven node/runner stack."""

import math

import pytest

from repro.core.optimal import synthesize_symmetric, synthesize_unidirectional
from repro.core.sequences import BeaconSchedule, NDProtocol, ReceptionSchedule
from repro.protocols import Disco, OptimalAsymmetric, Role
from repro.simulation import (
    mutual_discovery_times,
    ReceptionModel,
    simulate_network,
    simulate_pair,
    verified_worst_case,
)
from repro.simulation import runner
from tests.test_parallel_equivalence_zoo import _workload, ZOO


def make_pair(eta=0.05):
    protocol, design = synthesize_symmetric(omega=32, eta=eta)
    return protocol, design


class TestSimulatePair:
    def test_matches_analytic_exactly(self):
        """DES and closed-form computation must agree to the microsecond
        for a spread of offsets and all reception models."""
        protocol, design = make_pair()
        horizon = design.worst_case_latency * 3
        for model in ReceptionModel:
            for offset in (0, 1, 997, 5_000, 12_345, 44_444):
                analytic = mutual_discovery_times(
                    protocol, protocol, offset, horizon, model
                )
                des = simulate_pair(
                    protocol, protocol, offset, horizon, model
                )
                assert des.e_discovered_by_f == analytic.e_discovered_by_f
                assert des.f_discovered_by_e == analytic.f_discovered_by_e

    def test_turnaround_agreement(self):
        protocol, design = make_pair()
        horizon = design.worst_case_latency * 3
        for offset in (3, 7_777, 31_000):
            analytic = mutual_discovery_times(
                protocol, protocol, offset, horizon, turnaround=150
            )
            des = simulate_pair(
                protocol, protocol, offset, horizon, turnaround=150
            )
            assert des.e_discovered_by_f == analytic.e_discovered_by_f
            assert des.f_discovered_by_e == analytic.f_discovered_by_e

    def test_drift_changes_timing_but_still_discovers(self):
        protocol, design = make_pair()
        horizon = design.worst_case_latency * 4
        ideal = simulate_pair(protocol, protocol, 12_345, horizon)
        # Realistic 50 ppm shifts these ~17 ms discoveries by < 1 us (it
        # rounds away on the integer grid); a severe 5000 ppm crystal
        # error visibly moves the rendezvous yet discovery still succeeds.
        drifting = simulate_pair(
            protocol, protocol, 12_345, horizon, drift_ppm_f=5_000
        )
        assert drifting.e_discovered_by_f is not None
        assert drifting.f_discovered_by_e is not None
        assert (
            drifting.e_discovered_by_f != ideal.e_discovered_by_f
            or drifting.f_discovered_by_e != ideal.f_discovered_by_e
        )

    def test_jitter_is_seeded_and_reproducible(self):
        protocol, design = make_pair()
        horizon = design.worst_case_latency * 4
        a = simulate_pair(
            protocol, protocol, 5, horizon, advertising_jitter=500, seed=9
        )
        b = simulate_pair(
            protocol, protocol, 5, horizon, advertising_jitter=500, seed=9
        )
        c = simulate_pair(
            protocol, protocol, 5, horizon, advertising_jitter=500, seed=10
        )
        assert a == b
        assert a != c or a.one_way is not None  # different seed, very likely different


def _network_reference(protocol_e, protocol_f, offset, horizon, model, turnaround):
    """``(e_discovered_by_f, f_discovered_by_e)`` from the two-node
    network run, which always runs to the horizon."""
    times = simulate_network(
        [protocol_e, protocol_f],
        phases=[0, offset],
        horizon=horizon,
        reception_model=model,
        turnaround=turnaround,
    ).discovery_times
    return times.get(("n1", "n0")), times.get(("n0", "n1"))


class TestEarlyStop:
    """``simulate_pair`` stops once both first discoveries are decided;
    the outcome must equal the run to the horizon."""

    @pytest.mark.parametrize("turnaround", [0, 150])
    @pytest.mark.parametrize(
        "model", list(ReceptionModel), ids=[m.value for m in ReceptionModel]
    )
    @pytest.mark.parametrize("family", list(ZOO), ids=list(ZOO))
    def test_matches_network_run_to_horizon(self, family, model, turnaround):
        protocol_e, protocol_f = ZOO[family]()
        offsets, horizon = _workload(protocol_e, protocol_f)
        for offset in offsets:
            des = simulate_pair(
                protocol_e, protocol_f, offset, horizon, model, turnaround
            )
            assert (des.e_discovered_by_f, des.f_discovered_by_e) == (
                _network_reference(
                    protocol_e, protocol_f, offset, horizon, model, turnaround
                )
            ), (family, offset)

    @pytest.mark.parametrize("family", ["disco", "uconnect"])
    def test_self_blocking_deadlocks_never_discover(self, family):
        """Offsets that never discover stop at the periodicity point and
        agree with the network run to the horizon."""
        protocol_e, protocol_f = ZOO[family]()
        offsets, horizon = _workload(protocol_e, protocol_f)
        undiscovered = 0
        for offset in offsets:
            des = simulate_pair(protocol_e, protocol_f, offset, horizon)
            reference = _network_reference(
                protocol_e, protocol_f, offset, horizon,
                ReceptionModel.POINT, 0,
            )
            assert (des.e_discovered_by_f, des.f_discovered_by_e) == reference
            undiscovered += None in reference
        assert undiscovered > 0

    def test_unidirectional_pairs(self):
        """Only the direction that can discover is awaited; a pair with
        no such direction skips the run."""
        design = synthesize_unidirectional(omega=32, window=320, k=10, stride=11)
        adv = NDProtocol(beacons=design.beacons, reception=None)
        scan = NDProtocol(beacons=None, reception=design.reception)
        horizon = design.worst_case_latency * 2
        for protocol_e, protocol_f in ((adv, scan), (scan, adv)):
            for offset in (0, 1, 333, 3_200, 17_777):
                des = simulate_pair(protocol_e, protocol_f, offset, horizon)
                reference = _network_reference(
                    protocol_e, protocol_f, offset, horizon,
                    ReceptionModel.POINT, 0,
                )
                assert (des.e_discovered_by_f, des.f_discovered_by_e) == (
                    reference
                )
                assert reference.count(None) == 1
        for protocol_e, protocol_f in ((adv, adv), (scan, scan)):
            des = simulate_pair(protocol_e, protocol_f, 5, horizon)
            assert des.one_way is None
            assert _network_reference(
                protocol_e, protocol_f, 5, horizon, ReceptionModel.POINT, 0
            ) == (None, None)


class TestReplayEventCount:
    """A replay's calendar holds radio events only: each processed event
    is a transmission, a packet end, or -- with a turnaround guard -- a
    deferred decode.  A per-period scheduling event would add to the
    count without transmitting anything."""

    @pytest.mark.parametrize("turnaround", [0, 150])
    def test_disco_spot_batch(self, monkeypatch, turnaround):
        sims, channels, decodes = [], [], []

        class CountingSimulator(runner.Simulator):
            def __init__(self):
                super().__init__()
                sims.append(self)

        class CountingChannel(runner.Channel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.packet_ends = 0
                channels.append(self)

            def end_transmission(self, tx):
                self.packet_ends += 1
                super().end_transmission(tx)

        class CountingNode(runner.Node):
            def _decide(self, tx):
                decodes.append(self.sim)
                super()._decide(tx)

        monkeypatch.setattr(runner, "Simulator", CountingSimulator)
        monkeypatch.setattr(runner, "Channel", CountingChannel)
        monkeypatch.setattr(runner, "Node", CountingNode)
        disco = Disco(7, 13, slot_length=200, omega=16)
        protocol_e, protocol_f = disco.device(Role.E), disco.device(Role.F)
        result = verified_worst_case(
            protocol_e, protocol_f, horizon=91 * 200 * 12, omega=16,
            turnaround=turnaround,
        )
        assert result.des_agrees
        assert len(sims) == len(channels) == 16
        for sim, channel in zip(sims, channels):
            deferred = sum(1 for owner in decodes if owner is sim)
            expected = channel.total_transmissions + channel.packet_ends
            if turnaround > 0:
                expected += deferred
            assert sim.events_processed == expected
            assert channel.total_transmissions > 0

    @pytest.mark.parametrize("turnaround", [0, 150])
    def test_deadlocked_replay_stops_after_one_hyperperiod(
        self, monkeypatch, turnaround
    ):
        """Each device of ``OptimalAsymmetric(0.3, 0.15, 16)`` beacons
        over its own only window, so neither ever hears the other.  A
        replay over three joint hyperperiods transmits only the beacons
        of one joint hyperperiod plus the boot transient."""
        channels = []

        class CountingChannel(runner.Channel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                channels.append(self)

        monkeypatch.setattr(runner, "Channel", CountingChannel)
        pair = OptimalAsymmetric(0.3, 0.15, 16)
        protocol_e, protocol_f = pair.device(Role.E), pair.device(Role.F)
        hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
        span = hyper + 2 * (16 + turnaround)
        budget = sum(
            len(p.beacons.beacons) * (span // p.beacons.period + 1)
            for p in (protocol_e, protocol_f)
        )
        for offset in (0, 17, 500, -700, 2 * hyper + 3):
            outcome = simulate_pair(
                protocol_e, protocol_f, offset, 3 * hyper,
                turnaround=turnaround,
            )
            assert outcome.one_way is None
            assert channels[-1].total_transmissions <= budget


class TestVerifiedWorstCase:
    def test_unidirectional_design_verifies(self):
        design = synthesize_unidirectional(omega=32, window=320, k=10, stride=11)
        adv = NDProtocol(beacons=design.beacons, reception=None)
        scan = NDProtocol(beacons=None, reception=design.reception)
        result = verified_worst_case(
            adv, scan, horizon=design.worst_case_latency * 3, omega=32
        )
        assert result.des_agrees
        assert result.analytic.failures == 0
        # Worst packet-to-first-success = L minus one beacon gap.
        expected = design.worst_case_latency - design.beacons.period
        assert result.analytic.worst_one_way == expected

    def test_fallback_sweep_on_huge_hyperperiod(self):
        adv = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 104_729, 32), reception=None
        )
        scan = NDProtocol(
            beacons=None,
            reception=ReceptionSchedule.single_window(7_000, 99_991),
        )
        result = verified_worst_case(
            adv,
            scan,
            horizon=3_000_000,
            omega=32,
            max_critical=1_000,
            fallback_samples=256,
            des_spot_checks=4,
        )
        assert result.des_agrees
        assert result.offsets_checked <= 1_000


class TestSimulateNetwork:
    def test_full_discovery_without_collisions(self):
        protocol, design = make_pair(eta=0.05)
        result = simulate_network(
            [protocol] * 3,
            phases=[0, 11_111, 22_222],
            horizon=design.worst_case_latency * 6,
        )
        assert result.pairs_expected == 6
        assert result.discovery_rate == 1.0

    def test_statistics_accessors(self):
        protocol, design = make_pair(eta=0.05)
        result = simulate_network(
            [protocol] * 3,
            phases=[0, 7_777, 31_313],
            horizon=design.worst_case_latency * 6,
        )
        lat = result.latencies()
        assert lat == sorted(lat)
        assert result.quantile(0.5) in lat
        assert result.quantile(0.0) == lat[0]

    def test_random_phases_are_seeded(self):
        protocol, design = make_pair(eta=0.05)
        r1 = simulate_network(
            [protocol] * 3, horizon=design.worst_case_latency * 6, seed=5
        )
        r2 = simulate_network(
            [protocol] * 3, horizon=design.worst_case_latency * 6, seed=5
        )
        assert r1.discovery_times == r2.discovery_times

    def test_dense_network_produces_collisions(self):
        """Many devices with aligned phases must collide."""
        protocol, design = make_pair(eta=0.05)
        result = simulate_network(
            [protocol] * 8,
            phases=[0] * 8,  # adversarial: everyone transmits together
            horizon=design.worst_case_latency * 4,
        )
        assert result.total_collisions > 0
        # With identical phases every beacon collides: nobody discovers.
        assert result.discovery_rate == 0.0

    def test_validation(self):
        protocol, _ = make_pair()
        with pytest.raises(ValueError):
            simulate_network([protocol])
        with pytest.raises(ValueError):
            simulate_network([protocol] * 2, phases=[0])
        with pytest.raises(ValueError):
            simulate_network([protocol] * 2, phases=[0, 1], drift_ppm=[1])
