"""Integration: the paper's bounds versus exhaustive simulation.

These tests are the reproduction's core claim-checks:

1. Synthesized optimal schedules *attain* their bounds in exact offset
   sweeps (the bounds are tight).
2. No synthesized or zoo schedule ever *beats* the bound at its achieved
   duty-cycles (the bounds are safe).
3. The three reception models order as theory predicts.
"""

import pytest

from repro.core import bounds
from repro.core.optimal import (
    synthesize_asymmetric,
    synthesize_symmetric,
    synthesize_unidirectional,
)
from repro.core.sequences import NDProtocol
from repro.parallel import ParallelSweep
from repro.simulation import (
    critical_offsets,
    ReceptionModel,
    sweep_offsets,
    verified_worst_case,
)


def one_way_roles(design):
    adv = NDProtocol(beacons=design.beacons, reception=None, name="adv")
    scan = NDProtocol(beacons=None, reception=design.reception, name="scan")
    return adv, scan


class TestUnidirectionalTightness:
    @pytest.mark.parametrize(
        "window,k,stride",
        [(320, 10, 11), (100, 7, 8), (64, 5, 7), (500, 4, 9), (64, 12, 25)],
    )
    def test_worst_sweep_hits_design_latency(self, window, k, stride):
        """Exact offset sweep: worst packet-to-first-success latency equals
        L - lambda (the remaining lambda is the pre-range-entry slack in
        Definition 3.4), and no offset fails."""
        design = synthesize_unidirectional(32, window, k, stride)
        adv, scan = one_way_roles(design)
        offsets = critical_offsets(adv, scan, omega=32)
        report = sweep_offsets(
            adv, scan, offsets, horizon=design.worst_case_latency * 2 + 1
        )
        assert report.failures == 0
        gap = design.beacons.period
        assert report.worst_one_way == design.worst_case_latency - gap

    @pytest.mark.parametrize("window,k,stride", [(320, 10, 11), (100, 7, 8)])
    def test_no_offset_beats_zero(self, window, k, stride):
        """Tightness also means some offset takes the full worst case --
        the sweep maximum may not be an artifact of a lucky offset grid."""
        design = synthesize_unidirectional(32, window, k, stride)
        adv, scan = one_way_roles(design)
        offsets = critical_offsets(adv, scan, omega=32)
        report = sweep_offsets(
            adv, scan, offsets, horizon=design.worst_case_latency * 2
        )
        assert report.worst_one_way > 0
        assert report.mean_one_way > 0


class TestBoundSafety:
    """Large exact sweeps, run on the auto-resolved kernel (numpy when
    installed, else python); the kernels are pinned bit-identical to the
    python reference elsewhere in the suite."""

    @pytest.mark.parametrize("eta", [0.01, 0.02, 0.05, 0.1])
    def test_symmetric_designs_never_beat_theorem_5_5(self, eta):
        protocol, design = synthesize_symmetric(32, eta)
        adv, scan = one_way_roles(design)
        offsets = critical_offsets(adv, scan, omega=32, backend="auto")
        report = ParallelSweep(jobs=1).sweep_offsets(
            adv, scan, offsets, horizon=design.worst_case_latency * 2
        )
        assert report.failures == 0
        # Worst discovery from range entry >= sweep worst (entry adds up
        # to one gap); the bound must not be beaten by the full latency.
        full_worst = report.worst_one_way + design.beacons.period
        achieved_bound = bounds.symmetric_bound(32, protocol.eta)
        assert full_worst >= achieved_bound * (1 - 1e-9)

    def test_asymmetric_designs_never_beat_theorem_5_7(self):
        pe, pf, d_ef, d_fe = synthesize_asymmetric(32, 0.04, 0.01)
        worst_two_way = 0
        for design, tx_proto, rx_proto in (
            (d_ef, pe, pf),
            (d_fe, pf, pe),
        ):
            adv = NDProtocol(beacons=design.beacons, reception=None)
            scan = NDProtocol(beacons=None, reception=design.reception)
            offsets = critical_offsets(adv, scan, omega=32, backend="auto")
            report = ParallelSweep(jobs=1).sweep_offsets(
                adv, scan, offsets, horizon=design.worst_case_latency * 2
            )
            assert report.failures == 0
            worst_two_way = max(
                worst_two_way, report.worst_one_way + design.beacons.period
            )
        achieved_bound = bounds.asymmetric_bound(32, pe.eta, pf.eta)
        assert worst_two_way >= achieved_bound * (1 - 1e-9)


class TestDesCrossValidation:
    @pytest.mark.parametrize("eta", [0.02, 0.05])
    def test_event_driven_simulator_agrees_with_sweeps(self, eta):
        _, design = synthesize_symmetric(32, eta)
        adv, scan = one_way_roles(design)
        result = verified_worst_case(
            adv, scan, horizon=design.worst_case_latency * 2, omega=32
        )
        assert result.des_agrees
        assert result.analytic.failures == 0


class TestReceptionModelBracketing:
    def test_models_order_worst_cases(self):
        """Theory (Section 3.2 / Appendix A.3): coverage per window is
        d + omega (any-overlap) >= d (point) >= d - omega (containment),
        so worst-case latencies order the opposite way.

        A *disjoint* tiling has no redundancy to absorb the containment
        loss, so the CONTAINMENT sweep legitimately fails on the last
        omega of every coverage image (Appendix A.3's correction); the
        ordering is asserted on the offsets all models discover.
        """
        design = synthesize_unidirectional(32, 320, 8, 9)
        adv, scan = one_way_roles(design)
        offsets = critical_offsets(adv, scan, omega=32)
        horizon = design.worst_case_latency * 3
        reports = {}
        for model in ReceptionModel:
            reports[model] = sweep_offsets(adv, scan, offsets, horizon, model)
        assert reports[ReceptionModel.ANY_OVERLAP].failures == 0
        assert reports[ReceptionModel.POINT].failures == 0
        assert reports[ReceptionModel.CONTAINMENT].failures > 0
        assert (
            reports[ReceptionModel.ANY_OVERLAP].worst_one_way
            <= reports[ReceptionModel.POINT].worst_one_way
        )
        # Per-offset ordering where containment succeeds at all.
        from repro.simulation import mutual_discovery_times

        for offset in offsets[:: max(1, len(offsets) // 40)]:
            times = {
                model: mutual_discovery_times(
                    adv, scan, offset, horizon, model
                ).one_way
                for model in ReceptionModel
            }
            if times[ReceptionModel.CONTAINMENT] is not None:
                assert (
                    times[ReceptionModel.ANY_OVERLAP]
                    <= times[ReceptionModel.POINT]
                    <= times[ReceptionModel.CONTAINMENT]
                )

    def test_containment_fails_when_window_too_tight(self):
        """With d close to omega, containment leaves real coverage holes:
        the Appendix-A.3 degradation made visible."""
        design = synthesize_unidirectional(32, 40, 5, 6)
        adv, scan = one_way_roles(design)
        offsets = critical_offsets(adv, scan, omega=32)
        report = sweep_offsets(
            adv,
            scan,
            offsets,
            horizon=design.worst_case_latency * 3,
            model=ReceptionModel.CONTAINMENT,
        )
        assert report.failures > 0
