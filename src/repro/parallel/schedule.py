"""Cost-model-sorted work-stealing schedule for scenario grids.

Grid scenarios vary wildly in cost -- a dense 20-device run simulates
hundreds of times more channel events than a sparse pair over the same
horizon -- so PR 1's uniform contiguous chunks left tail chunks running
long after every other worker went idle.  PR 2 replaces them for grids
with the classic longest-processing-time-first discipline over a shared
queue: scenarios are *submitted* individually in descending estimated
cost, idle workers steal the next pending index from the pool's shared
task queue, and results are merged back by original grid index.

Scheduling order is a pure wall-clock concern: each scenario's RNG seed
derives from its *grid* index (:func:`repro.parallel.cache.derive_seed`)
and the merge is index-stable, so any schedule -- stolen by any number
of workers, or serial -- produces bit-identical result lists.

The cost model is deliberately cheap and deterministic: it only has to
rank scenarios, not predict wall-clock.  The event-driven simulator's
work is one heap event per beacon/window edge plus an O(devices) channel
interaction per transmission, which :func:`estimate_scenario_cost`
mirrors from the schedules alone.  Scenario objects may also carry their
own ``cost_hint()`` (see :class:`repro.workloads.Scenario`), which takes
precedence.

Since PR 3 the two event-rate components (beacon-side, window-side) are
separately weighted, and the weights can be **calibrated from real
timings**: ``benchmarks/bench_parallel_speedup.py`` records measured
per-scenario wall-clock (plus the two components) into
``results/BENCH_parallel.json``, and :func:`fit_cost_weights` solves the
least-squares fit ``seconds ~ w_beacon * beacon + w_window * window``
over those rows.  Install the result with :func:`use_cost_weights` to
have every ``cost_hint()`` (and therefore work-stealing submission
order) reflect the measured machine; scheduling order remains a pure
wall-clock concern, so results stay bit-identical under any weights.
"""

from __future__ import annotations

import json

__all__ = [
    "calibration_rows",
    "cost_components",
    "cost_weights",
    "default_simulation_cost",
    "estimate_scenario_cost",
    "fit_cost_weights",
    "plan_longest_first",
    "use_cost_weights",
]

#: (beacon-side, window-side) event weights.  The defaults weigh both
#: equally -- the pre-calibration PR-2 model.
_DEFAULT_COST_WEIGHTS = (1.0, 1.0)
_cost_weights = _DEFAULT_COST_WEIGHTS


def cost_components(protocols, horizon) -> tuple[float, float]:
    """The two raw event-rate components of one simulation's cost.

    ``(beacon_component, window_component)``: horizon times the summed
    beacon rate (weighted by the device count -- each transmission is an
    O(devices) channel interaction) and horizon times the summed window
    rate.  :func:`fit_cost_weights` regresses measured wall-clock onto
    exactly these two numbers.
    """
    n = len(protocols)
    beacon_rate = 0.0
    window_rate = 0.0
    for proto in protocols:
        if proto.beacons is not None:
            beacon_rate += (
                proto.beacons.n_beacons / float(proto.beacons.period) * n
            )
        if proto.reception is not None:
            window_rate += (
                proto.reception.n_windows / float(proto.reception.period)
            )
    return float(horizon) * beacon_rate, float(horizon) * window_rate


def default_simulation_cost(protocols, horizon, weights=None) -> float:
    """Event-rate cost model for one event-driven simulation.

    The weighted sum of :func:`cost_components`; ``weights`` defaults to
    the process-wide pair installed by :func:`use_cost_weights`.  Only
    the *ranking* across scenarios matters, not absolute accuracy.  The
    single copy of the formula --
    :meth:`repro.workloads.Scenario.cost_hint` delegates here.
    """
    w_beacon, w_window = weights if weights is not None else _cost_weights
    beacon_component, window_component = cost_components(protocols, horizon)
    return w_beacon * beacon_component + w_window * window_component


def cost_weights() -> tuple[float, float]:
    """The currently installed ``(beacon, window)`` cost weights."""
    return _cost_weights


def use_cost_weights(weights=None) -> tuple[float, float]:
    """Install process-wide cost weights; ``None`` restores defaults.

    Returns the *previous* pair so callers (benchmarks, tests) can
    restore it.  Affects only scheduling order -- results are seed- and
    index-stable regardless.
    """
    global _cost_weights
    previous = _cost_weights
    if weights is None:
        _cost_weights = _DEFAULT_COST_WEIGHTS
    else:
        w_beacon, w_window = float(weights[0]), float(weights[1])
        if w_beacon < 0 or w_window < 0:
            raise ValueError(f"cost weights must be non-negative: {weights}")
        _cost_weights = (w_beacon, w_window)
    return previous


def fit_cost_weights(bench) -> tuple[float, float]:
    """Calibrate ``(beacon, window)`` weights from measured timings.

    ``bench`` is ``results/BENCH_parallel.json`` content (a dict, a JSON
    string, or a path to the file) whose ``per_scenario`` rows carry
    ``beacon_component``/``window_component``/``seconds`` -- exactly
    what ``benchmarks/bench_parallel_speedup.py`` records.  Solves the
    unregularized least squares ``seconds ~ w_b * beacon + w_w * window``
    via the 2x2 normal equations (pure python: calibration must not
    require the optional NumPy extra), clamping negative solutions to
    zero; degenerate inputs (collinear components, too few rows) fall
    back to one shared scale so the fit can only refine the ranking,
    never destroy it.  Install the result with :func:`use_cost_weights`.
    """
    if isinstance(bench, (str, bytes)) and bench.lstrip()[:1] in (
        "{", "[", b"{", b"[",
    ):
        bench = json.loads(bench)
    elif not isinstance(bench, (dict, list)):
        with open(bench, encoding="utf-8") as handle:
            bench = json.load(handle)
    if isinstance(bench, dict):
        rows = bench.get("per_scenario")
        if rows is None:
            raise ValueError(
                "bench payload has no 'per_scenario' rows -- re-run "
                "benchmarks/bench_parallel_speedup.py (PR 3+) to record "
                "measured per-scenario timings"
            )
    else:
        rows = bench
    samples = [
        (
            float(row["beacon_component"]),
            float(row["window_component"]),
            float(row["seconds"]),
        )
        for row in rows
    ]
    if not samples:
        raise ValueError("fit_cost_weights needs at least one sample row")
    s_bb = sum(b * b for b, _, _ in samples)
    s_ww = sum(w * w for _, w, _ in samples)
    s_bw = sum(b * w for b, w, _ in samples)
    s_bs = sum(b * s for b, _, s in samples)
    s_ws = sum(w * s for _, w, s in samples)
    det = s_bb * s_ww - s_bw * s_bw
    scale_norm = sum((b + w) ** 2 for b, w, _ in samples)
    if len(samples) < 2 or det <= 1e-12 * max(s_bb * s_ww, 1e-300):
        # Collinear or underdetermined: one shared scale.
        shared = (
            sum((b + w) * s for b, w, s in samples) / scale_norm
            if scale_norm
            else 1.0
        )
        shared = max(shared, 0.0)
        return (shared, shared)
    w_beacon = (s_bs * s_ww - s_ws * s_bw) / det
    w_window = (s_ws * s_bb - s_bs * s_bw) / det
    return (max(w_beacon, 0.0), max(w_window, 0.0))


def calibration_rows(scenarios, seconds) -> list[dict]:
    """Pair scenarios with their measured wall-clock into fit rows.

    The bridge between a grid run's own timings
    (``ParallelSweep.map_scenarios(collect_timings=True)``) and
    :func:`fit_cost_weights`: each row carries the scenario's two
    event-rate components plus its measured seconds, exactly the
    ``per_scenario`` layout the benchmark records.  This is what lets
    :meth:`repro.api.Session.grid` auto-calibrate without a separate
    bench step.
    """
    scenarios = list(scenarios)
    seconds = list(seconds)
    if len(scenarios) != len(seconds):
        raise ValueError(
            f"scenarios and seconds must align "
            f"({len(scenarios)} vs {len(seconds)})"
        )
    rows = []
    for scenario, measured in zip(scenarios, seconds):
        beacon_component, window_component = cost_components(
            scenario.protocols, scenario.horizon
        )
        rows.append(
            {
                "scenario": getattr(scenario, "name", ""),
                "beacon_component": beacon_component,
                "window_component": window_component,
                "seconds": float(measured),
            }
        )
    return rows


def estimate_scenario_cost(scenario) -> float:
    """Deterministic relative cost of one grid scenario.

    Uses the scenario's own ``cost_hint()`` when available (the
    override point for custom scenario types), otherwise falls back to
    :func:`default_simulation_cost` over the duck-typed
    ``protocols``/``horizon`` attributes.
    """
    hint = getattr(scenario, "cost_hint", None)
    if callable(hint):
        return float(hint())
    return default_simulation_cost(scenario.protocols, scenario.horizon)


def plan_longest_first(scenarios) -> list[int]:
    """Submission order: indices by descending cost, ties by grid index.

    Deterministic (ties break toward the earlier scenario) so repeated
    runs submit identically -- only completion order may vary, and the
    index-stable merge hides even that.
    """
    costs = [estimate_scenario_cost(s) for s in scenarios]
    return sorted(range(len(costs)), key=lambda i: (-costs[i], i))
