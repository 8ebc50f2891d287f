"""BENCH-PARALLEL -- in-process vs persistent-pool wall-clock on fixed workloads.

Not a paper figure: the performance-trajectory tracker for the process
runtime.  ``RuntimeProfile.jobs`` is the only parallelism setting:
``jobs <= 1`` runs everything in-process, ``jobs > 1`` runs every
sharded batch on the one persistent worker pool.  The bench times both
on fixed, deterministic workloads, asserts bit-identity, and writes
``results/BENCH_parallel.json`` (read-modify-write: the sections other
benches write, i.e. ``bench_service_load.py``'s ``service``, survive;
every other key is replaced)::

    python benchmarks/bench_parallel_speedup.py --jobs 4

Rows, each compared against the fastest simple baseline -- the
in-process default (numpy) kernel:

* **sweep** -- a uniform phase-offset sweep of the synthesized
  symmetric eta=0.02 pair, in-process vs the persistent pool, cold
  (the first sweep boots the workers) and warm.  The top-level
  ``speedup`` is *persistent pool (warm) vs in-process numpy*; the
  exact legacy serial path (``sweep_offsets``) survives only as the
  labelled ``speedup_over_legacy_serial`` row.
* **grid** -- a 12-scenario dense-network grid, in-process vs the
  persistent pool.
* **kernels** -- a single-process shoot-out: python reference vs numpy
  (incremental and batch formulations).  Bit-identity is a hard exit
  gate; the numpy speedup is guarded by a coarse 3x perf floor that
  ``--no-perf-floors`` turns into a recorded-only row.
* **enumeration** -- critical-offset enumeration on Disco 101x103,
  python reference vs numpy, bit-identity hard-gated.
* **DES spot checks** -- a replay batch below the pool's
  estimated-event floor, so both timings run in-process (near parity
  is the expected result).
* **cost fit** -- measured per-scenario grid wall-clock that
  :func:`repro.parallel.fit_cost_weights` regresses into fitted cost
  weights.  Recorded only (``fitted_cost_weights``): it is the data for
  refreshing the ladder's checked-in ``REFERENCE_WEIGHTS``, never
  installed.
* **worst_case** -- the adaptive-fidelity ladder: exact mode is
  bit-identical to the pre-ladder engine (a hard gate) and bounded
  mode answers under a 100 ms budget, across the 13-family zoo plus
  two heavy Disco pairs; a perf floor requires at least one family
  where bounded mode met the budget that exact mode exceeded.
* **store** -- the golden campaign cold then warm against a fresh
  content-addressed store: the warm pass must be 100% hits with zero
  re-execution and the regenerated golden CSVs byte-identical (both
  hard gates).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from repro.backends import (
    available_backends,
    default_backend_name,
    numpy_version,
    NumpyBackend,
)
from repro.backends.pooled import shutdown_pooled_backends
from repro.core.optimal import synthesize_symmetric
from repro.core.sequences import BeaconSchedule, NDProtocol, ReceptionSchedule
from repro.parallel import (
    derive_seed,
    fit_cost_weights,
    get_listening_cache,
    invalidate_listening_caches,
    ParallelSweep,
)
from repro.parallel.schedule import cost_components
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
from repro.simulation import critical_offsets, ReceptionModel, sweep_offsets
from repro.simulation.runner import (
    _run_scenario,
    _select_spot_check_offsets,
    _verified_worst_case_impl,
)
from repro.workloads import dense_network, scenario_grid

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
#: Sections of the results file that other benches write.
FOREIGN_SECTIONS = ("service",)

# Fixed workload: keep these stable across PRs so the JSON series stays
# comparable.
OMEGA = 32
ETA = 0.02
OFFSET_STRIDE = 997  # prime: exercises every residue class of the pattern
N_OFFSETS = 6000
HORIZON_MULTIPLE = 3
N_SPOT_CHECKS = 8  # DES replays per spot-check phase (fixed subset)
GRID_AXES = {"n_devices": [3, 6, 10], "eta": [0.02, 0.05], "seed": [0, 1]}


def build_workload():
    protocol, design = synthesize_symmetric(OMEGA, ETA)
    offsets = [i * OFFSET_STRIDE for i in range(N_OFFSETS)]
    horizon = design.worst_case_latency * HORIZON_MULTIPLE
    return protocol, offsets, horizon


def best_of(repeats: int, fn):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


# Worst-case ladder phase (PR 10): the per-query budget bounded mode is
# measured against, and the engine knobs shared by every run in the
# phase -- identical on the exact side and the legacy reference so the
# bit-identity gate compares like with like.
WC_BUDGET_MS = 100.0
WC_SLOT = 200
WC_OMEGA = 16
WC_SPOT_CHECKS = 4


def _wc_pair(proto):
    return proto.device(Role.E), proto.device(Role.F)


def _wc_float_pi_pair():
    """Non-integer periods: exercises the uncached fallback paths."""
    adv = NDProtocol(
        beacons=BeaconSchedule.uniform(1, 100.1, 2),
        reception=ReceptionSchedule.single_window(25, 600),
    )
    scan = NDProtocol(
        beacons=BeaconSchedule.uniform(2, 150, 3),
        reception=ReceptionSchedule.single_window(40.5, 350.25),
    )
    return adv, scan


def worst_case_zoo():
    """The 13-family equivalence zoo (mirrors
    ``tests/test_parallel_equivalence_zoo.py``) plus two heavier Disco
    pairs: ``disco-7x13``, the frontier family -- its ~2.5k-offset
    exact sweep (plus DES cross-checks) overruns a 100 ms budget while
    the bounded ladder answers well inside it -- and ``disco-101x103``,
    a 10.4 s-hyperperiod stress row whose per-query setup alone
    (window materialization over a 125 M-us horizon) exceeds the
    budget, recording where the linear cost model's budgets stop being
    achievable.
    """
    zoo = {
        "disco": lambda: _wc_pair(
            Disco(3, 5, slot_length=WC_SLOT, omega=WC_OMEGA)
        ),
        "uconnect": lambda: _wc_pair(
            UConnect(5, slot_length=WC_SLOT, omega=WC_OMEGA)
        ),
        "searchlight": lambda: _wc_pair(
            Searchlight(4, slot_length=WC_SLOT, omega=WC_OMEGA)
        ),
        "diffcodes": lambda: _wc_pair(
            Diffcodes(2, slot_length=WC_SLOT, omega=WC_OMEGA)
        ),
        "grid-quorum": lambda: _wc_pair(
            GridQuorum(3, slot_length=WC_SLOT, omega=WC_OMEGA)
        ),
        "nihao": lambda: _wc_pair(Nihao(3, slot_length=100, omega=WC_OMEGA)),
        "birthday": lambda: _wc_pair(
            Birthday(
                p_tx=0.2, p_rx=0.2, slot_length=100, omega=WC_OMEGA,
                horizon_slots=64, seed=5,
            )
        ),
        "pi-bidirectional": lambda: _wc_pair(
            PeriodicInterval(300, 700, 150, omega=WC_OMEGA, bidirectional=True)
        ),
        "pi-adv-scan": lambda: _wc_pair(
            PeriodicInterval(
                300, 700, 150, omega=WC_OMEGA, bidirectional=False
            )
        ),
        "optimal-slotless": lambda: _wc_pair(
            OptimalSlotless(eta=0.05, omega=32)
        ),
        "optimal-asymmetric": lambda: _wc_pair(
            OptimalAsymmetric(eta_e=0.1, eta_f=0.05, omega=32)
        ),
        "correlated-one-way": lambda: _wc_pair(
            CorrelatedOneWay(k=4, window=64, omega=32)
        ),
        "float-period-pi": _wc_float_pi_pair,
        "disco-7x13": lambda: _wc_pair(
            Disco(7, 13, slot_length=1000, omega=32)
        ),
        "disco-101x103": lambda: _wc_pair(
            Disco(101, 103, slot_length=1000, omega=32)
        ),
    }
    return zoo


def _wc_horizon(protocol_e, protocol_f):
    """12x the largest schedule period -- the ladder test suite's
    horizon rule, so the bench measures the same queries it gates."""
    period = 1
    for proto in (protocol_e, protocol_f):
        if proto.beacons is not None:
            period = max(period, int(proto.beacons.period))
        if proto.reception is not None:
            period = max(period, int(proto.reception.period))
    return period * 12


def _legacy_worst_case(protocol_e, protocol_f, horizon, sweeper):
    """The pre-ladder engine composition, verbatim: critical enumeration
    (with the sampled fallback capped -- this PR's exactness fix), full
    sweep, DES spot checks on the worst offsets.  What exact mode must
    stay bit-identical to."""
    try:
        offsets = critical_offsets(
            protocol_e,
            protocol_f,
            omega=WC_OMEGA,
            max_count=200_000,
            backend=sweeper._resolve_backend(),
        )
    except ValueError:
        hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
        step = max(1, hyper // 4096)
        offsets = list(range(0, hyper, step))[:4096]
    report = sweeper.sweep_offsets(
        protocol_e, protocol_f, offsets, horizon, ReceptionModel.POINT, 0
    )
    check_offsets = _select_spot_check_offsets(
        offsets,
        (report.worst_offset_one_way, report.worst_offset_two_way),
        WC_SPOT_CHECKS,
    )
    checks = sweeper.spot_check_pairs(
        protocol_e, protocol_f, check_offsets, horizon,
        ReceptionModel.POINT, 0,
    )
    agrees = all(
        analytic.e_discovered_by_f == des.e_discovered_by_f
        and analytic.f_discovered_by_e == des.f_discovered_by_e
        for analytic, des in checks
    )
    return report, agrees, len(offsets)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output", default=str(RESULTS_DIR / "BENCH_parallel.json")
    )
    parser.add_argument(
        "--no-perf-floors",
        action="store_true",
        help="record kernel speedups without asserting the 3x numpy "
        "floor (for shared or overloaded runners)",
    )
    args = parser.parse_args(argv)

    protocol, offsets, horizon = build_workload()
    print(
        f"workload: {len(offsets)} offsets, horizon {horizon} us, "
        f"eta={protocol.eta:.6f}"
    )

    # Phase: pattern build, cold (fresh registry) vs warm (keyed hit).
    invalidate_listening_caches()
    start = time.perf_counter()
    get_listening_cache(protocol)
    cache_cold_s = time.perf_counter() - start
    start = time.perf_counter()
    get_listening_cache(protocol)
    cache_warm_s = time.perf_counter() - start
    print(
        f"pattern build : {cache_cold_s:.3f} s cold, "
        f"{cache_warm_s * 1e6:.0f} us registry-warm"
    )

    # Phase: the fixed offset sweep.  The baseline is the in-process
    # default kernel; the exact legacy serial path is a labelled row.
    serial_s, serial_report = best_of(
        args.repeats,
        lambda: sweep_offsets(protocol, protocol, offsets, horizon),
    )
    print(f"legacy serial: {serial_s:.3f} s (best of {args.repeats})")
    inprocess = ParallelSweep(jobs=1)
    inprocess_s, inprocess_report = best_of(
        args.repeats,
        lambda: inprocess.sweep_offsets(protocol, protocol, offsets, horizon),
    )
    print(f"in-process   : {inprocess_s:.3f} s (best of {args.repeats})")
    # The first pool sweep pays worker startup; later ones reuse the
    # warm workers, which is the steady state of a session.
    shutdown_pooled_backends()
    pool = ParallelSweep(jobs=args.jobs)
    pool_cold_s, pool_cold_report = best_of(
        1,
        lambda: pool.sweep_offsets(protocol, protocol, offsets, horizon),
    )
    pool_warm_s, pool_report = best_of(
        args.repeats,
        lambda: pool.sweep_offsets(protocol, protocol, offsets, horizon),
    )
    identical = (
        pool_report == pool_cold_report == inprocess_report == serial_report
    )
    speedup = inprocess_s / pool_warm_s if pool_warm_s > 0 else float("inf")
    legacy_speedup = (
        serial_s / pool_warm_s if pool_warm_s > 0 else float("inf")
    )
    print(
        f"pool({args.jobs:2d})     : {pool_cold_s:.3f} s cold, "
        f"{pool_warm_s:.3f} s warm (best of {args.repeats})"
    )
    print(
        f"speedup      : {speedup:.2f}x persistent pool vs in-process "
        f"numpy ({legacy_speedup:.2f}x vs legacy serial)   "
        f"bit-identical: {identical}"
    )

    # Phase: a scenario grid, in-process vs the warm persistent pool.
    grid = scenario_grid(dense_network, **GRID_AXES)
    grid_inprocess_s, grid_inprocess = best_of(
        args.repeats, lambda: ParallelSweep(jobs=1).map_scenarios(grid)
    )
    grid_pool_s, grid_pool = best_of(
        args.repeats, lambda: pool.map_scenarios(grid)
    )
    grid_identical = grid_pool == grid_inprocess
    identical = identical and grid_identical
    grid_speedup = (
        grid_inprocess_s / grid_pool_s if grid_pool_s > 0 else float("inf")
    )
    print(
        f"grid x{len(grid)}     : {grid_inprocess_s:.3f} s in-process, "
        f"{grid_pool_s:.3f} s pool({args.jobs}) [{grid_speedup:.2f}x]   "
        f"bit-identical: {grid_identical}"
    )

    # Phase: single-worker kernel shoot-out (backend, not pool, speedup).
    # The numpy == python assert is the CI smoke gate for the fast
    # kernel; the speedup is recorded as acceptance evidence and, since
    # PR 8, guarded by a coarse 3x floor (--no-perf-floors to disable)
    # chosen well below the reference-machine numbers so shared-runner
    # jitter does not flake the gate.
    backend_timings: dict = {}
    python_s, python_report = best_of(
        args.repeats,
        lambda: ParallelSweep(jobs=1, backend="python").sweep_offsets(
            protocol, protocol, offsets, horizon
        ),
    )
    backend_timings["python_seconds"] = python_s
    kernel_identical = python_report == serial_report
    identical = identical and kernel_identical
    print(f"kernel python: {python_s:.3f} s   bit-identical: {kernel_identical}")
    kernel_speedup = None
    if "numpy" in available_backends():
        numpy_s, numpy_report = best_of(
            args.repeats,
            lambda: ParallelSweep(jobs=1, backend="numpy").sweep_offsets(
                protocol, protocol, offsets, horizon
            ),
        )
        backend_timings["numpy_seconds"] = numpy_s
        kernel_identical = numpy_report == python_report == serial_report
        identical = identical and kernel_identical
        kernel_speedup = python_s / numpy_s if numpy_s > 0 else float("inf")
        backend_timings["kernel_speedup_numpy_over_python"] = kernel_speedup
        print(
            f"kernel numpy : {numpy_s:.3f} s   {kernel_speedup:.2f}x over "
            f"python   bit-identical: {kernel_identical}"
        )
        # Incremental vs wholesale batch on the same strided sweep.  The
        # fixed offsets are an arithmetic progression, so the default
        # numpy timing above already took the incremental cross-offset
        # path; forcing use_incremental=False times the batch kernel it
        # has to beat (PR 8 acceptance row).  Bit-identity between the
        # two formulations stays a hard exit gate.
        batch_s, batch_report = best_of(
            args.repeats,
            lambda: ParallelSweep(
                jobs=1, backend=NumpyBackend(use_incremental=False)
            ).sweep_offsets(protocol, protocol, offsets, horizon),
        )
        batch_identical = batch_report == numpy_report == serial_report
        identical = identical and batch_identical
        incremental_speedup = (
            batch_s / numpy_s if numpy_s > 0 else float("inf")
        )
        backend_timings["numpy_batch_seconds"] = batch_s
        backend_timings["numpy_incremental_seconds"] = numpy_s
        backend_timings["incremental_speedup_over_batch"] = (
            incremental_speedup
        )
        print(
            f"kernel incr  : {numpy_s:.3f} s incremental vs {batch_s:.3f} s "
            f"batch   {incremental_speedup:.2f}x   "
            f"bit-identical: {batch_identical}"
        )
    # Phase: critical-offset enumeration on a large-zoo pair (PR 5).
    # The python reference double loop vs the vectorized kernel;
    # bit-identity between the full sorted offset lists is a hard exit
    # gate, the speedup (>= 3x acceptance bar) is recorded evidence.
    enum_proto = Disco(101, 103, slot_length=1000, omega=32)
    enum_e, enum_f = enum_proto.device(Role.E), enum_proto.device(Role.F)
    enum_python_s, enum_python = best_of(
        args.repeats,
        lambda: critical_offsets(enum_e, enum_f, omega=32),
    )
    backend_timings["enumeration_python_seconds"] = enum_python_s
    backend_timings["enumeration_offsets"] = len(enum_python)
    print(
        f"enum python  : {enum_python_s:.3f} s "
        f"({len(enum_python)} critical offsets, Disco 101x103)"
    )
    if "numpy" in available_backends():
        enum_numpy_s, enum_numpy = best_of(
            args.repeats,
            lambda: critical_offsets(enum_e, enum_f, omega=32, backend="numpy"),
        )
        enum_identical = enum_numpy == enum_python
        identical = identical and enum_identical
        enum_speedup = (
            enum_python_s / enum_numpy_s if enum_numpy_s > 0 else float("inf")
        )
        backend_timings["enumeration_numpy_seconds"] = enum_numpy_s
        backend_timings["enumeration_speedup_numpy_over_python"] = enum_speedup
        print(
            f"enum numpy   : {enum_numpy_s:.3f} s   {enum_speedup:.2f}x over "
            f"python   bit-identical: {enum_identical}"
        )

    # Phase: DES spot-check replays (the verified_worst_case tail),
    # in-process vs the jobs-aware path.  This batch sits below the
    # pool's estimated-event floor, so near-parity between the two
    # timings is the expected result -- it demonstrates the gate that
    # keeps short replay batches off the pool; long-horizon validations
    # clear the floor and shard across workers.
    spot_offsets = offsets[:: max(1, len(offsets) // N_SPOT_CHECKS)][
        :N_SPOT_CHECKS
    ]
    spot_serial_s, spot_serial = best_of(
        1,
        lambda: ParallelSweep(jobs=1).spot_check_pairs(
            protocol, protocol, spot_offsets, horizon
        ),
    )
    spot_parallel_s, spot_parallel = best_of(
        1,
        lambda: pool.spot_check_pairs(
            protocol, protocol, spot_offsets, horizon
        ),
    )
    spot_identical = spot_serial == spot_parallel
    identical = identical and spot_identical
    shutdown_pooled_backends()
    print(
        f"DES spot x{len(spot_offsets)} : {spot_serial_s:.3f} s serial, "
        f"{spot_parallel_s:.3f} s jobs={args.jobs}   "
        f"bit-identical: {spot_identical}"
    )

    # Phase: measured per-scenario grid wall-clock for cost-model
    # calibration.  Serial, one run per scenario, seeds derived exactly
    # as sweep_network_grid derives them; the recorded event-rate
    # components are what fit_cost_weights regresses seconds onto.
    calibration_grid = scenario_grid(
        dense_network, n_devices=[3, 6], eta=[0.02, 0.05], seed=[0]
    )
    per_scenario = []
    for index, scenario in enumerate(calibration_grid):
        start = time.perf_counter()
        _run_scenario(scenario, seed=derive_seed(0, index))
        seconds = time.perf_counter() - start
        beacon_component, window_component = cost_components(
            scenario.protocols, scenario.horizon
        )
        per_scenario.append(
            {
                "name": scenario.name,
                "beacon_component": beacon_component,
                "window_component": window_component,
                "seconds": seconds,
            }
        )
    fitted = fit_cost_weights({"per_scenario": per_scenario})
    print(
        f"cost fit     : {len(per_scenario)} scenarios -> weights "
        f"(beacon={fitted[0]:.3e}, window={fitted[1]:.3e})"
    )

    # Phase: adaptive-fidelity worst-case ladder (PR 10).  Exact mode
    # must stay bit-identical to the pre-ladder engine composition
    # across the 13-family zoo -- a hard exit gate, folded into
    # ``identical``.  Bounded mode reruns every family under a 100 ms
    # budget with the planner users get (priced with the checked-in
    # REFERENCE_WEIGHTS; the fit above is recorded only, as the recipe
    # for refreshing that constant), plus the heavy ``disco-101x103``
    # pair whose exact sweep cannot meet the budget: the recorded rows
    # are the exact-vs-bounded latency/accuracy frontier.
    wc_rows = []
    wc_identical = True
    wc_budget_met = []
    wc_exact_over = []
    wc_sweeper = ParallelSweep(jobs=1)
    for family, build in worst_case_zoo().items():
        wc_e, wc_f = build()
        wc_horizon = _wc_horizon(wc_e, wc_f)
        legacy_report, legacy_agrees, legacy_n = _legacy_worst_case(
            wc_e, wc_f, wc_horizon, wc_sweeper
        )
        exact_s, exact_outcome = best_of(
            1,
            lambda: _verified_worst_case_impl(
                wc_e, wc_f, wc_horizon, omega=WC_OMEGA,
                des_spot_checks=WC_SPOT_CHECKS, sweeper=wc_sweeper,
            ),
        )
        family_identical = (
            exact_outcome.analytic == legacy_report
            and exact_outcome.des_agrees == legacy_agrees
            and exact_outcome.offsets_checked == legacy_n
        )
        wc_identical = wc_identical and family_identical
        bounded_s, bounded_outcome = best_of(
            1,
            lambda: _verified_worst_case_impl(
                wc_e, wc_f, wc_horizon, omega=WC_OMEGA,
                des_spot_checks=WC_SPOT_CHECKS, sweeper=wc_sweeper,
                fidelity="auto", budget_ms=WC_BUDGET_MS,
            ),
        )
        truth = exact_outcome.analytic.worst_one_way
        lo, hi = bounded_outcome.bound_interval
        accuracy = None
        if truth and lo is not None:
            accuracy = lo / truth
        if bounded_s * 1000.0 <= WC_BUDGET_MS:
            wc_budget_met.append(family)
        if exact_s * 1000.0 > WC_BUDGET_MS:
            wc_exact_over.append(family)
        wc_rows.append(
            {
                "family": family,
                "horizon": wc_horizon,
                "exact_seconds": exact_s,
                "bounded_seconds": bounded_s,
                "exact_offsets": exact_outcome.offsets_checked,
                "bounded_offsets": bounded_outcome.offsets_checked,
                "bounded_fidelity": bounded_outcome.fidelity,
                "bound_interval": [lo, hi],
                "exact_worst_one_way": truth,
                "accuracy": accuracy,
                "exact_bit_identical": family_identical,
            }
        )
        print(
            f"worst-case   : {family:<20} exact {exact_s * 1000:8.1f} ms"
            f"   bounded {bounded_s * 1000:7.1f} ms"
            f" [{bounded_outcome.fidelity}]"
            f"   bit-identical: {family_identical}"
        )
    identical = identical and wc_identical
    wc_frontier = sorted(set(wc_exact_over) & set(wc_budget_met))
    print(
        f"worst-case   : exact bit-identical: {wc_identical}   bounded "
        f"met {WC_BUDGET_MS:.0f} ms where exact overran: {wc_frontier}"
    )
    worst_case_phase = {
        "budget_ms": WC_BUDGET_MS,
        "spot_checks": WC_SPOT_CHECKS,
        "exact_bit_identical": wc_identical,
        "families": wc_rows,
        "bounded_met_budget": wc_budget_met,
        "exact_over_budget": wc_exact_over,
        "frontier_families": wc_frontier,
    }

    # Phase: the content-addressed result store on the golden campaign
    # (PR 6).  Cold run executes all 14 sweeps and writes back; the warm
    # rerun must be 100% store hits with zero sweep re-execution, and
    # the four golden CSVs regenerated from store payloads must be
    # byte-identical to the pinned files -- both are hard exit gates.
    # The recorded numbers are the lookup-vs-sweep trajectory: what a
    # fingerprint lookup costs against what the sweep it replaces cost.
    import shutil
    import tempfile

    from repro.campaign import (
        build_golden_campaign,
        CampaignRunner,
        regenerate_golden_csvs,
    )
    from repro.store import ResultStore

    store_dir = Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        store = ResultStore(store_dir / "store")
        campaign = build_golden_campaign()
        start = time.perf_counter()
        cold = CampaignRunner(
            campaign, store, manifest_path=store_dir / "cold.json"
        ).run()
        store_cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = CampaignRunner(
            campaign, store, manifest_path=store_dir / "warm.json"
        ).run()
        store_warm_s = time.perf_counter() - start
        hit_rate = warm["hits"] / warm["total"]
        store_ok = (
            cold["complete"] and warm["complete"]
            and warm["executed"] == 0 and hit_rate >= 0.9
        )
        regenerated = regenerate_golden_csvs(store, store_dir / "csv")
        csv_ok = all(
            path.read_bytes() == (RESULTS_DIR / path.name).read_bytes()
            for path in regenerated
        )
        identical = identical and store_ok and csv_ok
        sweep_per_entry = store_cold_s / cold["total"]
        lookup_per_entry = store_warm_s / warm["total"]
        print(
            f"store        : {store_cold_s:.3f} s cold ({cold['executed']} "
            f"executed), {store_warm_s:.3f} s warm ({warm['hits']} hits, "
            f"hit rate {hit_rate:.0%}, 0 re-executions: "
            f"{warm['executed'] == 0})"
        )
        print(
            f"store lookup : {lookup_per_entry * 1e3:.2f} ms/entry vs "
            f"{sweep_per_entry * 1e3:.2f} ms/entry sweep   "
            f"golden CSVs byte-identical: {csv_ok}"
        )
        store_phase = {
            "campaign_entries": cold["total"],
            "cold_seconds": store_cold_s,
            "warm_seconds": store_warm_s,
            "warm_hit_rate": hit_rate,
            "warm_executed": warm["executed"],
            "lookup_seconds_per_entry": lookup_per_entry,
            "sweep_seconds_per_entry": sweep_per_entry,
            "lookup_vs_sweep_speedup": (
                sweep_per_entry / lookup_per_entry
                if lookup_per_entry > 0 else float("inf")
            ),
            "golden_csvs_bit_identical": csv_ok,
        }

    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    payload = {
        "experiment": "BENCH-PARALLEL",
        "workload": {
            "omega": OMEGA,
            "eta": ETA,
            "n_offsets": len(offsets),
            "offset_stride": OFFSET_STRIDE,
            "horizon": horizon,
            "n_spot_checks": len(spot_offsets),
        },
        "jobs": args.jobs,
        "repeats": args.repeats,
        "backend": default_backend_name(),
        "numpy_version": numpy_version(),
        "baseline": "in-process numpy (jobs=1)",
        "inprocess_seconds": inprocess_s,
        "pool_cold_seconds": pool_cold_s,
        "pool_warm_seconds": pool_warm_s,
        "speedup": speedup,
        "legacy_serial_seconds": serial_s,
        "speedup_over_legacy_serial": legacy_speedup,
        "bit_identical": identical,
        "phases": {
            "cache_build_cold_seconds": cache_cold_s,
            "cache_build_warm_seconds": cache_warm_s,
            "des_spot_inprocess_seconds": spot_serial_s,
            "des_spot_jobs_seconds": spot_parallel_s,
        },
        "grid": {
            "scenarios": len(grid),
            "axes": GRID_AXES,
            "inprocess_seconds": grid_inprocess_s,
            "pool_seconds": grid_pool_s,
            "speedup": grid_speedup,
            "bit_identical": grid_identical,
        },
        "backends": backend_timings,
        "store": store_phase,
        "worst_case": worst_case_phase,
        "per_scenario": per_scenario,
        "fitted_cost_weights": {
            "beacon": fitted[0],
            "window": fitted[1],
        },
        "worst_one_way": serial_report.worst_one_way,
        "worst_two_way": serial_report.worst_two_way,
    }
    # Perf floors (PR 8): wall-clock ratios flake on shared runners, so
    # the floors sit far below the reference-machine numbers (>= 3x
    # recorded as ~6-9x numpy) and --no-perf-floors turns them into
    # recorded-only rows.
    floor_failures = []
    if not args.no_perf_floors:
        if kernel_speedup is not None and kernel_speedup < 3.0:
            floor_failures.append(
                f"numpy kernel speedup {kernel_speedup:.2f}x over python "
                f"fell below the 3x floor"
            )
        if not wc_frontier:
            floor_failures.append(
                f"no zoo family had bounded mode meet the "
                f"{WC_BUDGET_MS:.0f} ms budget while exact mode exceeded it"
            )
    payload["perf_floors"] = {
        "numpy_over_python": 3.0,
        "worst_case_bounded_budget_ms": WC_BUDGET_MS,
        "enforced": not args.no_perf_floors,
        "failures": floor_failures,
    }
    # Read-modify-write: keep the sections other benches write; every
    # other key is this run's, so a key it no longer writes is dropped.
    output = Path(args.output)
    merged = {}
    if output.exists():
        previous = json.loads(output.read_text(encoding="utf-8"))
        merged = {
            key: previous[key] for key in FOREIGN_SECTIONS if key in previous
        }
    merged.update(payload)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    print(f"-> {output}")

    if not identical:
        print("FAIL: parallel results diverged from the serial reference")
        return 1
    if floor_failures:
        for failure in floor_failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
