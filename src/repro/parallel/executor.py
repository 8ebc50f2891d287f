"""Process-parallel executor for offset sweeps, spot-checks and grids.

The experiments behind every bound-validation figure reduce to many
*independent* evaluations -- one exact pair computation per phase
offset, one DES replay per spot-check offset, or one event-driven
network run per grid point.  :class:`ParallelSweep` shards them across
worker processes while preserving the serial path's results exactly:

* an offset sweep's report and its per-offset outcomes come from one
  :meth:`repro.backends.SweepBackend.sweep_outcomes_batch` call.
  In-process, the ``numpy`` kernel reduces its first-discovery vectors
  straight into the :class:`SweepReport` and builds an outcome only
  when one is read; the ``python`` kernel and the pool fold per-offset
  outcomes (the pool's come back from its workers in offset order)
  with :func:`repro.simulation.analytic.summarize_outcomes`, the
  reference every reduction is pinned equal to (earliest-offset ties,
  exact integer sums for the means);
* a DES spot check is a replay and nothing else: the worst-case
  engine compares it with the sweep's own outcome at that offset, so
  the check covers the answer the engine reports.  The event-driven
  simulator shares no code with the kernels or the pattern cache;
* seeded runs derive each item's seed from its *global* index via
  :func:`repro.parallel.cache.derive_seed`, never from its submission
  slot, so scheduling is invisible to the RNG.

There is one process runtime, chosen by ``jobs`` alone: ``jobs <= 1``
runs everything in-process, and ``jobs > 1`` sends every sharded batch
to the persistent pool of :mod:`repro.backends.pooled` shared per
``(kernel, jobs, mp_context)``.  The *kernel* each worker (or the
in-process path) runs is a pluggable :class:`repro.backends.SweepBackend`
selected by name -- ``"python"`` or ``"numpy"``; ``"auto"`` resolves
to ``numpy`` when NumPy is importable.  This executor (built directly
or by :class:`repro.api.Session` from a ``RuntimeProfile``) is the one
place ``jobs`` and ``backend`` are chosen: the plain functions of
:mod:`repro.simulation` take neither.
Offset sweeps are contiguously chunked (per-offset cost is near
uniform); grid scenarios go through the cost-model-sorted work-stealing
order of :mod:`repro.parallel.schedule`: one submission per scenario,
longest first, merged back by grid index.  DES spot-checks follow the
same one-submission-per-offset pattern.

Worker payloads are plain protocols/offsets sent through module-level
functions; nothing closes over simulator state, so everything pickles
under both fork and spawn start methods.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
# Bound at module level so instrumentation can count pool boots here.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401

from ..core.sequences import NDProtocol
from ..simulation.analytic import (
    DiscoveryOutcome,
    ReceptionModel,
    SweepReport,
)
from .cache import derive_seed
from .schedule import default_simulation_cost, plan_longest_first

__all__ = ["ParallelSweep"]

# Estimated simulated-event floor below which DES spot-checks stay
# in-process even with jobs > 1: a handful of short replays finishes
# serially before the pool's round-trips (or its first boot) would --
# on any core count.  Roughly one second of serial replay work at
# typical event throughput.
_SPOT_POOL_MIN_EVENTS = 100_000


# ----------------------------------------------------------------------
# Worker entry points (module-level: picklable by name)
# ----------------------------------------------------------------------


def _spot_check_replay(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    offset: int,
    horizon: int,
    model: ReceptionModel,
    turnaround: int,
    stop: int | None,
) -> DiscoveryOutcome:
    """One spot check: a DES replay
    (:func:`repro.simulation.runner.simulate_pair`) and nothing else.

    The replay stops once every direction that can discover has
    discovered, which is all a :class:`DiscoveryOutcome` records, and,
    for integer schedules (spot checks have ideal clocks and no
    jitter), at ``stop``: the pair's periodicity point one joint
    hyperperiod past the boot transient
    (:func:`repro.simulation.runner._periodic_stop`, computed once per
    batch), where a still-undiscovered direction is deadlocked.  Float
    schedules (``float-period-pi``) have no ``stop`` and replay to the
    horizon.  The single shared body is what makes the pooled and
    in-process spot-check paths identical by construction.
    """
    from ..simulation.runner import _replay_pair

    return _replay_pair(
        protocol_e, protocol_f, offset, horizon, model, turnaround, stop
    )


def _network_one_cfg(config: dict, item: tuple[int, object]):
    """Run one ``(global_index, scenario)`` network simulation.

    The global index rides along only to derive the scenario's
    schedule-invariant seed; result placement uses the index map kept by
    the submitting side.
    """
    from ..simulation.runner import _run_scenario

    global_index, scenario = item
    return _run_scenario(
        scenario,
        seed=derive_seed(config["base_seed"], global_index),
        reception_model=config["reception_model"],
        turnaround=config["turnaround"],
        advertising_jitter=config["advertising_jitter"],
    )


def _steal_merge(scenarios: list, submit) -> list:
    """The work-stealing discipline.

    Submit every scenario index longest-estimated-first through
    ``submit(index) -> Future`` (idle workers then steal from the
    pool's shared queue) and merge results back at their grid index --
    the index-stable merge that keeps scheduling invisible to callers.
    """
    order = plan_longest_first(scenarios)
    results: list = [None] * len(scenarios)
    futures = {index: submit(index) for index in order}
    for index, future in futures.items():
        results[index] = future.result()
    return results


def _estimated_spot_events(
    protocols, horizon, n_offsets: int, stop: int | None
) -> float:
    """Estimated simulated events for a DES spot-check batch.

    The unit-weight event count: the ``_SPOT_POOL_MIN_EVENTS`` floor
    is an absolute event-count threshold.  Each replay runs to the
    horizon or, when the pair has one, to its periodic ``stop``,
    whichever comes first.
    """
    if stop is not None:
        horizon = min(horizon, stop)
    return n_offsets * default_simulation_cost(protocols, horizon)


class ParallelSweep:
    """Shard independent evaluations across worker processes.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` uses the CPU count, ``<= 1`` runs
        everything in-process.  ``> 1`` runs every sharded batch on the
        shared persistent pool for ``(kernel, jobs, mp_context)``
        (:func:`repro.backends.pooled.get_pooled_backend`).
    mp_context:
        ``multiprocessing`` start-method name; defaults to ``fork``
        where available (Linux) and ``spawn`` elsewhere.  Results are
        identical either way -- workers hold no inherited mutable state.
    backend:
        Sweep-kernel selection (:mod:`repro.backends`): a registered
        name (``"python"``, ``"numpy"``), ``"auto"``
        (default: the fastest importable kernel), or a
        :class:`repro.backends.SweepBackend` instance.  A custom
        instance that is not registered cannot be named inside a
        worker, so it keeps everything in-process.  Results are
        bit-identical for every selection.
    """

    def __init__(
        self,
        jobs: int | None = None,
        mp_context: str | None = None,
        backend="auto",
    ) -> None:
        from ..backends.pooled import _default_mp_context

        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 0:
            raise ValueError(f"jobs must be non-negative, got {jobs}")
        self.jobs = jobs
        self.mp_context = mp_context or _default_mp_context()
        self.backend = backend

    # ------------------------------------------------------------------
    @classmethod
    def from_profile(cls, profile) -> "ParallelSweep":
        """Construct the executor one :class:`repro.api.RuntimeProfile`
        describes.

        The one mapping between the declarative runtime configuration
        and this engine's constructor -- :class:`repro.api.Session`
        builds its engine here, so profile fields and executor
        parameters cannot drift apart silently.
        """
        return cls(
            jobs=profile.jobs,
            mp_context=profile.mp_context,
            backend=profile.backend,
        )

    # ------------------------------------------------------------------
    def _resolve_backend(self):
        """The kernel instance this sweep runs (in-process or, by
        registry name, inside the pool's workers)."""
        from ..backends import resolve_backend

        return resolve_backend(self.backend)

    def pool(self):
        """The shared persistent pool this executor shards over, or
        ``None`` when everything runs in-process (``jobs <= 1``, or an
        unregistered kernel instance).  Resolving it boots nothing."""
        from ..backends.base import is_registered
        from ..backends.pooled import get_pooled_backend

        kernel = self._resolve_backend()
        if self.jobs <= 1 or not is_registered(kernel.name):
            return None
        return get_pooled_backend(kernel.name, self.jobs, self.mp_context)

    # ------------------------------------------------------------------
    def sweep_offsets(
        self,
        protocol_e: NDProtocol,
        protocol_f: NDProtocol,
        offsets: list[int],
        horizon: int,
        model: ReceptionModel = ReceptionModel.POINT,
        turnaround: int = 0,
        *,
        with_outcomes: bool = False,
    ) -> SweepReport | tuple[SweepReport, Sequence[DiscoveryOutcome]]:
        """Parallel :func:`repro.simulation.analytic.sweep_offsets`,
        bit-identical to the serial call.

        Returns the :class:`SweepReport`, or with ``with_outcomes`` the
        pair ``(report, outcomes)``: the per-offset outcomes the report
        reduces, a sequence aligned with ``offsets`` (the worst-case
        engine reads its spot-checked offsets from it).  Either way the
        batch is evaluated once.
        """
        from ..backends import SweepParams

        params = SweepParams(protocol_e, protocol_f, horizon, model, turnaround)
        runner = self.pool() or self._resolve_backend()
        report, outcomes = runner.sweep_outcomes_batch(params, list(offsets))
        return (report, outcomes) if with_outcomes else report

    # ------------------------------------------------------------------
    def evaluate_offsets(
        self,
        protocol_e: NDProtocol,
        protocol_f: NDProtocol,
        offsets: list[int],
        horizon: int,
        model: ReceptionModel = ReceptionModel.POINT,
        turnaround: int = 0,
    ) -> list[DiscoveryOutcome]:
        """Parallel :func:`repro.simulation.analytic.evaluate_offsets`:
        per-offset outcomes in input order."""
        from ..backends import SweepParams

        params = SweepParams(protocol_e, protocol_f, horizon, model, turnaround)
        # The pool runs fewer than two offsets through its kernel
        # in-process, so both branches see the same degenerate rule.
        runner = self.pool() or self._resolve_backend()
        return runner.evaluate_offsets_batch(params, list(offsets))

    # ------------------------------------------------------------------
    def spot_check_pairs(
        self,
        protocol_e: NDProtocol,
        protocol_f: NDProtocol,
        offsets: list[int],
        horizon: int,
        model: ReceptionModel = ReceptionModel.POINT,
        turnaround: int = 0,
    ) -> list[DiscoveryOutcome]:
        """One DES replay outcome per offset, in input order.

        The worst-case engine compares these with the outcomes its own
        sweep reported at the same offsets, so ``des_agrees`` says the
        event-driven simulator reproduces the numbers the verdict is
        made of.  The DES shares no code with the kernels or the
        pattern cache: a wrong kernel answer shows as a mismatch.  A
        wrong DES stop shows too: the replay's periodic stop and the
        numpy kernel's dead-lane retirement are independent mechanisms
        (the python kernel has no early stop at all), and
        ``tests/test_des_periodic_stop_property.py`` pins the stopped
        replay against a full-horizon one.

        The replays dominate ``verified_worst_case`` once sweeps are
        fast; each offset is an independent simulation, so they shard
        one-per-submission like the work-stealing grid path.  Both the
        serial and the pooled path run identical computations per
        offset, so the result list is independent of ``jobs``.

        Batches whose estimated simulated-event count falls below
        ``_SPOT_POOL_MIN_EVENTS`` run in-process regardless of ``jobs``:
        short replays (small horizons, sparse schedules, few offsets)
        finish serially faster than the pool round-trips them.
        Long-horizon validations -- where the replays actually
        dominate -- clear the floor and shard.
        """
        from ..simulation.runner import _periodic_stop

        offsets = list(offsets)
        stop = _periodic_stop(protocol_e, protocol_f, turnaround)
        pool = self.pool()
        if (
            pool is None
            or len(offsets) < 2
            or _estimated_spot_events(
                [protocol_e, protocol_f], horizon, len(offsets), stop
            ) < _SPOT_POOL_MIN_EVENTS
        ):
            return [
                _spot_check_replay(
                    protocol_e, protocol_f, offset, horizon, model,
                    turnaround, stop,
                )
                for offset in offsets
            ]
        futures = [
            pool.submit(
                _spot_check_replay,
                protocol_e, protocol_f, offset, horizon, model, turnaround,
                stop,
            )
            for offset in offsets
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def map_scenarios(
        self,
        scenarios: list,
        base_seed: int = 0,
        reception_model: ReceptionModel = ReceptionModel.POINT,
        turnaround: int = 0,
        advertising_jitter: int = 0,
    ) -> list:
        """Run one network simulation per scenario, in input order.

        Each scenario's RNG seed derives from its global index, so the
        returned list is identical whatever ``jobs`` or ``backend`` is
        (including the in-process serial path).  With ``jobs > 1`` the
        grid runs on the persistent pool in work-stealing submission
        order, so successive small grids stop paying pool startup.
        """
        scenarios = list(scenarios)
        config = {
            "base_seed": base_seed,
            "reception_model": reception_model,
            "turnaround": turnaround,
            "advertising_jitter": advertising_jitter,
        }
        pool = self.pool()
        if pool is None or len(scenarios) < 2:
            return [
                _network_one_cfg(config, item)
                for item in enumerate(scenarios)
            ]
        return _steal_merge(
            scenarios,
            lambda index: pool.submit(
                _network_one_cfg, config, (index, scenarios[index])
            ),
        )
