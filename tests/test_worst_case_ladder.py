"""The adaptive-fidelity worst-case ladder (PR 10).

Four contract groups:

* **Ladder equivalence** -- an unbudgeted query (``fidelity="exact"``,
  the default) is bit-identical to the pre-ladder engine composition
  across the full 13-family protocol zoo, for every registered kernel.
* **Budgets** -- a larger ``budget_ms`` never widens the reported bound
  interval (the dense tier's offsets are prefix-nested), tier selection
  is a pure function of the spec (the cost model is a constant), and the
  spec-level validation matrix holds.
* **Exactness bugfixes** -- only :class:`CriticalSetTooLarge` triggers
  the sampled fallback (a plain ``ValueError`` from a kernel is a bug
  and propagates), and the fallback emits *exactly*
  ``fallback_samples`` offsets even when the hyperperiod is not a
  multiple of it.
* **Service accounting** -- job durations come from the monotonic
  clock, and budgeted submissions tighten (never loosen) the per-attempt
  deadline.
"""

import asyncio
import dataclasses
import json
import math

import pytest

from repro.api import RunSpec, Session, SpecError
from repro.api.result import rehydrate_raw
from repro.backends import available_backends, CriticalSetTooLarge
from repro.parallel import ParallelSweep
from repro.protocols import Disco, Nihao, Role
from repro.simulation import (
    critical_offsets,
    mutual_discovery_times,
    ReceptionModel,
)
from repro.simulation.ladder import (
    estimate_critical_count,
    LadderPlanner,
    low_discrepancy_offsets,
)
from repro.simulation.runner import (
    _select_spot_check_offsets,
    _verified_worst_case_impl,
)
from tests.test_parallel_equivalence_zoo import ZOO

BACKENDS = available_backends()

OMEGA = 16
SPOT_CHECKS = 6  # same on both sides of every equivalence comparison


def _horizon(protocol_e, protocol_f):
    period = 1
    for proto in (protocol_e, protocol_f):
        if proto.beacons is not None:
            period = max(period, int(proto.beacons.period))
        if proto.reception is not None:
            period = max(period, int(proto.reception.period))
    return period * 12


def _legacy_engine(
    protocol_e,
    protocol_f,
    horizon,
    omega,
    sweeper,
    des_spot_checks=SPOT_CHECKS,
    fallback_samples=4096,
):
    """The pre-ladder engine composition, verbatim: critical enumeration
    (broad ``except ValueError`` fallback and all), full sweep, DES
    spot checks.  Returns ``(report, agrees, offsets_checked)`` -- the
    three fields the old ``PairWorstCase`` carried."""
    try:
        offsets = critical_offsets(
            protocol_e,
            protocol_f,
            omega=omega,
            max_count=200_000,
            backend=sweeper._resolve_backend(),
        )
    except ValueError:
        hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
        step = max(1, hyper // fallback_samples)
        # The [:fallback_samples] cap is this PR's deliberate fix (the
        # uncapped grid overshot; pinned by
        # test_fallback_sample_count_capped_exactly) -- the equivalence
        # suite guards the engine restructure around it.
        offsets = list(range(0, hyper, step))[:fallback_samples]
        fell_back = True
    else:
        fell_back = False
    report = sweeper.sweep_offsets(
        protocol_e, protocol_f, offsets, horizon, ReceptionModel.POINT, 0
    )
    check_offsets, _ = _select_spot_check_offsets(
        offsets,
        (report.worst_offset_one_way, report.worst_offset_two_way),
        des_spot_checks,
    )
    checks = sweeper.spot_check_pairs(
        protocol_e, protocol_f, check_offsets, horizon,
        ReceptionModel.POINT, 0,
    )
    # The old engine scored each replay against the uncached reference.
    agrees = all(
        d == mutual_discovery_times(
            protocol_e, protocol_f, d.offset, horizon, ReceptionModel.POINT, 0
        )
        for d in checks
    )
    return report, agrees, len(offsets), fell_back


# ----------------------------------------------------------------------
# Ladder equivalence: exact mode == the pre-ladder engine, whole zoo.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS + ["jobs=2"])
@pytest.mark.parametrize("family", list(ZOO), ids=list(ZOO))
def test_exact_mode_bit_identical_to_legacy_engine(family, backend):
    protocol_e, protocol_f = ZOO[family]()
    horizon = _horizon(protocol_e, protocol_f)
    sweeper = (
        ParallelSweep(jobs=2) if backend == "jobs=2"
        else ParallelSweep(jobs=1, backend=backend)
    )
    report, agrees, n_offsets, fell_back = _legacy_engine(
        protocol_e, protocol_f, horizon, OMEGA, sweeper
    )
    outcome = _verified_worst_case_impl(
        protocol_e, protocol_f, horizon, omega=OMEGA,
        des_spot_checks=SPOT_CHECKS, sweeper=sweeper,
    )
    assert outcome.analytic == report, (family, backend)
    assert outcome.des_agrees == agrees, (family, backend)
    assert outcome.offsets_checked == n_offsets, (family, backend)
    assert outcome.budget_ms is None
    assert outcome.fallback_used == fell_back
    if fell_back:
        # Families whose critical set trips the guard (huge asymmetric
        # hyperperiods) were never exact; the verdict now says so.
        assert outcome.fidelity == "bounded"
        assert [t["tier"] for t in outcome.tiers if t["ran"]] == [
            "dense", "des",
        ]
    else:
        assert outcome.fidelity == "exact"
        assert outcome.bound_interval == (
            report.worst_one_way, report.worst_one_way
        )
        assert [t["tier"] for t in outcome.tiers if t["ran"]] == [
            "critical", "des",
        ]


def test_session_default_is_exact_with_provenance():
    """The Session verb defaults to the exact path and mirrors the
    provenance block into the payload (which survives JSON)."""
    pair = {
        "kind": "zoo",
        "protocol": "Disco",
        "params": {"prime1": 3, "prime2": 5, "slot_length": 200,
                   "omega": OMEGA},
    }
    spec = RunSpec(pair=pair, omega=OMEGA, des_spot_checks=SPOT_CHECKS)
    with Session() as session:
        result = session.worst_case(spec)
    outcome = result.raw
    assert outcome.fidelity == "exact"
    provenance = result.payload["provenance"]
    assert provenance["fidelity"] == "exact"
    assert provenance["fallback_used"] is False
    assert provenance["budget_ms"] is None
    wire = json.loads(json.dumps(result.payload))
    assert rehydrate_raw("worst_case", wire) == outcome


def test_rehydrate_pre_provenance_payload_uses_defaults():
    """Old stored payloads (no provenance block) still rehydrate."""
    pair = {"kind": "symmetric", "eta": 0.05, "omega": 32}
    spec = RunSpec(pair=pair, omega=32, des_spot_checks=SPOT_CHECKS)
    with Session() as session:
        payload = dict(session.worst_case(spec).payload)
    del payload["provenance"]
    outcome = rehydrate_raw("worst_case", json.loads(json.dumps(payload)))
    assert outcome is not None
    assert outcome.fidelity == "exact"
    assert outcome.bound_interval is None
    assert outcome.tiers == ()


# ----------------------------------------------------------------------
# Budgets: monotone intervals, deterministic tier selection, validation.
# ----------------------------------------------------------------------
def _disco_pair():
    proto = Disco(3, 5, slot_length=200, omega=OMEGA)
    return proto.device(Role.E), proto.device(Role.F)


def test_budget_monotonicity():
    """A larger budget never widens the bound interval: the lower bound
    is non-decreasing, the width non-increasing, and the evaluated
    offset count non-decreasing up to the exact tier."""
    protocol_e, protocol_f = _disco_pair()
    horizon = _horizon(protocol_e, protocol_f)
    budgets = [0.2, 1.0, 5.0, 25.0, 100.0, 400.0]
    outcomes = [
        _verified_worst_case_impl(
            protocol_e, protocol_f, horizon, omega=OMEGA,
            des_spot_checks=SPOT_CHECKS, budget_ms=budget,
        )
        for budget in budgets
    ]
    for previous, current in zip(outcomes, outcomes[1:]):
        lo_p, hi_p = previous.bound_interval
        lo_c, hi_c = current.bound_interval
        if lo_p is not None:
            assert lo_c is not None and lo_c >= lo_p
        if lo_p is not None and lo_c is not None:
            assert hi_c - lo_c <= hi_p - lo_p
        if previous.fidelity == "bounded" and current.fidelity == "bounded":
            assert current.offsets_checked >= previous.offsets_checked
    assert outcomes[0].fidelity == "bounded"
    assert outcomes[-1].fidelity == "exact"
    # The exact verdict matches the unbudgeted engine's answer.
    exact = _verified_worst_case_impl(
        protocol_e, protocol_f, horizon, omega=OMEGA,
        des_spot_checks=SPOT_CHECKS,
    )
    assert outcomes[-1].analytic == exact.analytic


def test_bounded_lower_bound_never_exceeds_exact():
    """Every bounded interval brackets the exact answer."""
    protocol_e, protocol_f = _disco_pair()
    horizon = _horizon(protocol_e, protocol_f)
    exact = _verified_worst_case_impl(
        protocol_e, protocol_f, horizon, omega=OMEGA,
        des_spot_checks=SPOT_CHECKS,
    )
    truth = exact.analytic.worst_one_way
    for budget in (0.5, 2.0, 10.0):
        outcome = _verified_worst_case_impl(
            protocol_e, protocol_f, horizon, omega=OMEGA,
            des_spot_checks=SPOT_CHECKS, budget_ms=budget,
        )
        lo, hi = outcome.bound_interval
        if lo is not None:
            assert lo <= truth
        assert hi >= truth


def test_tier_selection_deterministic():
    """Same spec + same cost model => identical result objects,
    provenance included (the store/parallel equality contract)."""
    protocol_e, protocol_f = _disco_pair()
    horizon = _horizon(protocol_e, protocol_f)

    def run():
        return _verified_worst_case_impl(
            protocol_e, protocol_f, horizon, omega=OMEGA,
            des_spot_checks=SPOT_CHECKS, budget_ms=50.0,
        )

    first, second = run(), run()
    assert first == second
    assert first.tiers == second.tiers
    # Tier provenance carries planner estimates, never wall-clock.
    for tier in first.tiers:
        assert "seconds" not in tier and "wall" not in tier


def test_over_budget_critical_tier_is_priced_and_skipped():
    """A budget below the exact tier's estimated price records the
    priced skip -- from the analytic count estimate, without paying the
    enumeration -- and degrades to the dense tier."""
    protocol_e, protocol_f = _disco_pair()
    horizon = _horizon(protocol_e, protocol_f)
    hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
    planner = LadderPlanner(protocol_e, protocol_f, horizon)
    guess = estimate_critical_count(protocol_e, protocol_f, hyper)
    n_critical = len(
        critical_offsets(protocol_e, protocol_f, omega=OMEGA)
    )
    # The estimate must upper-bound the real count -- that is what makes
    # skipping on the estimate sound (never skips an affordable tier
    # because the estimate came in low).
    assert guess >= n_critical
    price = planner.sweep_ms(n_critical)
    outcome = _verified_worst_case_impl(
        protocol_e, protocol_f, horizon, omega=OMEGA,
        des_spot_checks=SPOT_CHECKS, budget_ms=price / 4,
    )
    assert outcome.fidelity == "bounded"
    critical = next(t for t in outcome.tiers if t["tier"] == "critical")
    assert critical == {
        "tier": "critical", "ran": False, "estimated_offsets": guess,
        "estimated_ms": planner.sweep_ms(guess), "reason": "over-budget",
    }
    dense = next(t for t in outcome.tiers if t["tier"] == "dense")
    assert dense["ran"] and dense["offsets"] == outcome.offsets_checked


@pytest.mark.parametrize("budget_ms", [None, 1e6], ids=["exact", "budgeted"])
def test_des_mismatch_runs_one_batch_and_counts_its_replays(budget_ms):
    """A disagreeing DES batch decides the verdict on its own: no second
    batch replays neighbouring offsets, and the ``des`` tier's
    ``checks`` counts exactly the replays that ran."""
    protocol_e, protocol_f = _disco_pair()
    horizon = _horizon(protocol_e, protocol_f)
    batches = []

    class ContradictingSweeper(ParallelSweep):
        def spot_check_pairs(self, protocol_e, protocol_f, offsets, *args):
            batches.append(list(offsets))
            return [
                dataclasses.replace(des, e_discovered_by_f=-1)
                for des in super().spot_check_pairs(
                    protocol_e, protocol_f, offsets, *args
                )
            ]

    outcome = _verified_worst_case_impl(
        protocol_e, protocol_f, horizon, omega=OMEGA,
        des_spot_checks=SPOT_CHECKS, sweeper=ContradictingSweeper(jobs=1),
        budget_ms=budget_ms,
    )
    assert outcome.des_agrees is False
    assert len(batches) == 1 and batches[0]
    des = next(t for t in outcome.tiers if t["tier"] == "des")
    assert des["checks"] == len(batches[0])
    if budget_ms is not None:
        # Budget to spare: the removed escalation would have replayed
        # the unused half of the allocation.
        assert des["allocation"] > des["checks"]
    assert all("escalated" not in tier for tier in outcome.tiers)


def test_low_discrepancy_offsets_prefix_nested():
    for hyper in (4096, 3000, 97):
        full = low_discrepancy_offsets(hyper, min(hyper, 64))
        assert len(set(full)) == len(full)
        assert all(0 <= offset < hyper for offset in full)
        for count in (1, 7, 32):
            assert low_discrepancy_offsets(hyper, count) == full[:count]


def test_spec_budget_validation_matrix():
    pair = {"kind": "symmetric", "eta": 0.05}
    RunSpec(pair=pair, fidelity="auto", budget_ms=100.0)
    RunSpec(pair=pair, fidelity="bounded", budget_ms=100.0)
    RunSpec(pair=pair, fidelity="exact")
    with pytest.raises(SpecError):
        RunSpec(pair=pair, fidelity="exact", budget_ms=100.0)
    with pytest.raises(SpecError):
        RunSpec(pair=pair, fidelity="bounded")
    with pytest.raises(SpecError):
        RunSpec(pair=pair, fidelity="approximate")
    with pytest.raises(SpecError):
        RunSpec(pair=pair, fidelity="auto", budget_ms=0)
    with pytest.raises(SpecError):
        RunSpec(pair=pair, fidelity="auto", budget_ms=-5.0)


def test_session_budgeted_worst_case_carries_budget():
    pair = {
        "kind": "zoo",
        "protocol": "Disco",
        "params": {"prime1": 3, "prime2": 5, "slot_length": 200,
                   "omega": OMEGA},
    }
    spec = RunSpec(
        pair=pair, omega=OMEGA, des_spot_checks=SPOT_CHECKS,
        fidelity="auto", budget_ms=2.0,
    )
    with Session() as session:
        result = session.worst_case(spec)
    outcome = result.raw
    assert outcome.budget_ms == 2.0
    assert outcome.fidelity in ("exact", "bounded")
    lo, hi = outcome.bound_interval
    # The zoo pair has a predicted worst case; the analytic tier must
    # cap the upper bound with it (not just the horizon).
    analytic = next(t for t in outcome.tiers if t["tier"] == "analytic")
    assert analytic["upper_bound"] <= result.payload["horizon"]
    assert hi <= max(analytic["upper_bound"], lo or 0)
    wire = json.loads(json.dumps(result.payload))
    assert rehydrate_raw("worst_case", wire) == outcome


# ----------------------------------------------------------------------
# Exactness bugfixes: narrow fallback trigger, exact fallback cap.
# ----------------------------------------------------------------------
def test_plain_value_error_from_kernel_propagates(monkeypatch):
    """Only CriticalSetTooLarge may trigger the sampled fallback; a
    plain ValueError out of a kernel is a genuine bug and surfaces."""
    protocol_e, protocol_f = _disco_pair()

    def broken_kernel(*args, **kwargs):
        raise ValueError("kernel bug: negative residue")

    monkeypatch.setattr(
        "repro.simulation.runner.critical_offsets", broken_kernel
    )
    with pytest.raises(ValueError, match="kernel bug"):
        _verified_worst_case_impl(
            protocol_e, protocol_f, 30_000, omega=OMEGA,
            des_spot_checks=SPOT_CHECKS,
        )
    # Budget generous enough that the pre-priced critical tier is
    # affordable and the (broken) enumeration actually runs.
    with pytest.raises(ValueError, match="kernel bug"):
        _verified_worst_case_impl(
            protocol_e, protocol_f, 30_000, omega=OMEGA,
            des_spot_checks=SPOT_CHECKS, budget_ms=10_000.0,
        )


def test_critical_set_too_large_still_falls_back(monkeypatch):
    protocol_e, protocol_f = _disco_pair()

    def overflowing_kernel(*args, **kwargs):
        raise CriticalSetTooLarge("critical set exceeded 1 offsets")

    monkeypatch.setattr(
        "repro.simulation.runner.critical_offsets", overflowing_kernel
    )
    outcome = _verified_worst_case_impl(
        protocol_e, protocol_f, 30_000, omega=OMEGA,
        des_spot_checks=SPOT_CHECKS,
    )
    assert outcome.fallback_used
    assert outcome.fidelity == "bounded"


def test_fallback_sample_count_capped_exactly():
    """hyperperiod 3000 with fallback_samples=7: step 428 yields 8
    offsets pre-fix; the cap emits exactly 7 and records it."""
    protocol_e, protocol_f = _disco_pair()
    hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
    samples = 7
    assert hyper % samples != 0
    step = max(1, hyper // samples)
    assert len(range(0, hyper, step)) > samples  # the pre-fix overshoot
    outcome = _verified_worst_case_impl(
        protocol_e, protocol_f, _horizon(protocol_e, protocol_f),
        omega=OMEGA, des_spot_checks=SPOT_CHECKS,
        max_critical=1, fallback_samples=samples,
    )
    assert outcome.fallback_used
    assert outcome.fidelity == "bounded"
    assert outcome.offsets_checked == samples
    dense = next(t for t in outcome.tiers if t["tier"] == "dense")
    assert dense == {
        "tier": "dense", "ran": True, "offsets": samples,
        "requested": samples,
    }
    lo, hi = outcome.bound_interval
    assert hi == _horizon(protocol_e, protocol_f)


def test_exception_type_is_a_value_error_subclass():
    """External ``except ValueError`` call sites keep working."""
    assert issubclass(CriticalSetTooLarge, ValueError)
    protocol_e, protocol_f = _disco_pair()
    with pytest.raises(ValueError):
        critical_offsets(protocol_e, protocol_f, omega=OMEGA, max_count=1)
    with pytest.raises(CriticalSetTooLarge):
        critical_offsets(protocol_e, protocol_f, omega=OMEGA, max_count=1)


# ----------------------------------------------------------------------
# Service accounting: monotonic durations, budget-derived deadlines.
# ----------------------------------------------------------------------
def test_job_durations_use_monotonic_clock():
    from repro.service.jobs import Job

    async def scenario():
        spec = RunSpec(pair={"kind": "symmetric", "eta": 0.05})
        job = Job("job-000001", "worst_case", spec, None)
        assert job.queued_seconds() is None
        assert job.run_seconds() is None
        # Wall-clock display stamps and monotonic duration stamps are
        # independent: stepping the wall clock must not affect durations.
        job.started = job.created - 3600.0  # a clock step ate an hour
        job.started_mono = job.created_mono + 0.25
        job.finished_mono = job.started_mono + 1.5
        assert job.queued_seconds() == pytest.approx(0.25)
        assert job.run_seconds() == pytest.approx(1.5)
        snapshot = job.snapshot()
        assert snapshot["queued_seconds"] == pytest.approx(0.25)
        assert snapshot["run_seconds"] == pytest.approx(1.5)

    asyncio.run(scenario())


def test_attempt_timeout_tightened_by_budget():
    from repro.service.jobs import Job
    from repro.service.service import (
        BUDGET_TIMEOUT_FLOOR,
        BUDGET_TIMEOUT_SLACK,
        SweepService,
    )

    async def scenario():
        budgeted = RunSpec(
            pair={"kind": "symmetric", "eta": 0.05},
            fidelity="auto", budget_ms=100.0,
        )
        unbudgeted = RunSpec(pair={"kind": "symmetric", "eta": 0.05})
        derived = (
            0.1 * BUDGET_TIMEOUT_SLACK + BUDGET_TIMEOUT_FLOOR
        )
        service = SweepService(job_timeout=30.0)
        job = Job("job-000001", "worst_case", budgeted, None)
        assert service._attempt_timeout(job) == pytest.approx(derived)
        plain = Job("job-000002", "worst_case", unbudgeted, None)
        assert service._attempt_timeout(plain) == 30.0
        # The budget tightens, never loosens, an already-short deadline.
        tight = SweepService(job_timeout=0.5)
        assert tight._attempt_timeout(job) == 0.5
        unlimited = SweepService()
        assert unlimited._attempt_timeout(job) == pytest.approx(derived)
        assert unlimited._attempt_timeout(plain) is None

    asyncio.run(scenario())


def test_service_budgeted_submission_round_trip():
    """A budgeted worst_case through the live service completes within
    its (slacked) deadline tier and carries provenance end to end."""
    from repro.service import ServiceClient, SweepService

    async def scenario():
        spec = RunSpec(
            pair={
                "kind": "zoo",
                "protocol": "Disco",
                "params": {"prime1": 3, "prime2": 5, "slot_length": 200,
                           "omega": OMEGA},
            },
            omega=OMEGA, des_spot_checks=SPOT_CHECKS,
            fidelity="auto", budget_ms=50.0,
        )
        async with SweepService(workers=1) as service:
            client = ServiceClient(service)
            job = service.submit("worst_case", spec)
            deadline = service._attempt_timeout(job)
            assert deadline is not None
            assert deadline <= 0.05 * 4.0 + 1.0  # never past the tier
            result = await client.result(job.id)
            snapshot = job.snapshot()
        assert snapshot["state"] == "done"
        assert snapshot["run_seconds"] is not None
        assert 0 <= snapshot["run_seconds"] <= deadline
        provenance = result.payload["provenance"]
        assert provenance["budget_ms"] == 50.0
        assert provenance["fidelity"] in ("exact", "bounded")
        assert result.raw.budget_ms == 50.0

    asyncio.run(scenario())
