"""The runtime -- kernel choice and process parallelism -- is set only
through :class:`repro.api.RuntimeProfile`/:class:`repro.api.Session` or
:class:`repro.parallel.ParallelSweep`.

The simulation-layer entry points take no per-call ``jobs=``/``backend=``
keyword, and the two conveniences that wrap an engine
(:func:`verified_worst_case`, :func:`sweep_network_grid`) run in-process:
they boot no worker pool and leave no child process behind.
"""

import inspect
import multiprocessing

import pytest

from repro.backends import pooled
from repro.core.optimal import synthesize_symmetric
from repro.simulation import (
    evaluate_offsets,
    sweep_network_grid,
    sweep_offsets,
    verified_worst_case,
)
from repro.workloads import dense_network, scenario_grid


def _small_pair():
    protocol, design = synthesize_symmetric(32, 0.05)
    return protocol, design.worst_case_latency * 3


def _call(function, **runtime):
    protocol, horizon = _small_pair()
    if function is sweep_network_grid:
        grid = scenario_grid(dense_network, n_devices=[3], eta=[0.05])
        return function(grid, **runtime)
    if function is verified_worst_case:
        return function(protocol, protocol, horizon, omega=32, **runtime)
    return function(protocol, protocol, [0, 1_111], horizon, **runtime)


@pytest.mark.parametrize("keyword", ["jobs", "backend"])
@pytest.mark.parametrize(
    "function",
    [evaluate_offsets, sweep_offsets, verified_worst_case, sweep_network_grid],
    ids=lambda function: function.__name__,
)
def test_no_per_call_runtime_keyword(function, keyword):
    assert keyword not in inspect.signature(function).parameters
    with pytest.raises(TypeError, match=keyword):
        _call(function, **{keyword: 2 if keyword == "jobs" else "python"})


@pytest.mark.parametrize(
    "function", [verified_worst_case, sweep_network_grid],
    ids=lambda function: function.__name__,
)
def test_convenience_runs_in_process(function):
    shared_before = dict(pooled._SHARED)
    live_before = set(pooled._LIVE_POOLS)
    children_before = {p.pid for p in multiprocessing.active_children()}
    assert _call(function)
    assert pooled._SHARED == shared_before
    assert pooled._LIVE_POOLS == live_before
    assert {
        p.pid for p in multiprocessing.active_children()
    } <= children_before
