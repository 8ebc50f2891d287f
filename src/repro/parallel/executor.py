"""Process-parallel executor: in-process sweeps, pooled scenario grids.

The experiments behind every bound-validation figure reduce to many
*independent* evaluations -- one exact pair computation per phase
offset, one DES replay per spot-check offset, or one event-driven
network run per grid point.  :class:`ParallelSweep` runs them all with
results identical to the serial path:

* an offset sweep's report and its per-offset outcomes come from one
  :meth:`repro.backends.SweepBackend.sweep_outcomes_batch` call on the
  selected kernel.  The ``numpy`` kernel reduces its first-discovery
  vectors straight into the :class:`SweepReport` and builds an outcome
  only when one is read; the ``python`` kernel folds per-offset
  outcomes with :func:`repro.simulation.analytic.summarize_outcomes`,
  the reference every reduction is pinned equal to (earliest-offset
  ties, exact integer sums for the means);
* a DES spot check is a replay and nothing else: the worst-case
  engine compares it with the sweep's own outcome at that offset, so
  the check covers the answer the engine reports.  The event-driven
  simulator shares no code with the kernels or the pattern cache;
* seeded grid runs derive each scenario's seed from its *global*
  index via :func:`repro.parallel.cache.derive_seed`, never from its
  submission slot, so scheduling is invisible to the RNG.

There is one process runtime, and ``jobs`` is the number of processes
for **scenario grids**: ``jobs <= 1`` runs every grid in-process, and
``jobs > 1`` sends each grid's scenarios to the persistent pool of
:mod:`repro.backends.pooled` shared per ``(jobs, mp_context)``, one
submission per scenario in the cost-model-sorted work-stealing order
of :mod:`repro.parallel.schedule` (longest first, merged back by grid
index).  Offset sweeps, ``evaluate_offsets`` calls and DES spot-check
batches always run in-process, whatever ``jobs`` is.  Measured on
2 vCPUs with numpy 2.4.6, warm pool, identical results either way:

* a 6000-offset sweep of the bench: in-process numpy 5.0 ms, pool
  35.6 ms; with the ``python`` kernel 250 against 245 ms;
* the 156k-offset Disco 101x103 critical sweep: 0.24-0.33 s
  in-process, 0.87-0.89 s on the pool;
* DES spot-check batches of disco-101x103 with 64 / 256 offsets:
  37-55 / 189-246 ms in-process, 245-290 / 800-916 ms on the pool;
* the 12-scenario DES grid, the one row the pool wins: 0.165-0.18 s
  on the pool against 0.23-0.31 s in-process.

The known cost falls on inputs no benchmark workload has: a 19.5k-offset
Disco 101x103 sweep on the ``python`` kernel (no NumPy) took 3.6-3.75 s
on a ``jobs=2`` pool and takes 7.0-7.2 s in-process, and float-schedule
spot checks at 40x the bench horizon took 138-179 / 588-703 ms on the
pool for 16 / 64 replays and take 252-291 / 986-1170 ms in-process.

The *kernel* a sweep runs is a pluggable
:class:`repro.backends.SweepBackend` selected by name -- ``"python"``
or ``"numpy"``; ``"auto"`` resolves to ``numpy`` when NumPy is
importable.  This executor (built directly or by
:class:`repro.api.Session` from a ``RuntimeProfile``) is the one place
``jobs`` and ``backend`` are chosen: the plain functions of
:mod:`repro.simulation` take neither.

Grid payloads are plain scenarios sent through a module-level
function; nothing closes over simulator state, so everything pickles
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
from .schedule import plan_longest_first

__all__ = ["ParallelSweep"]


# ----------------------------------------------------------------------
# Grid worker entry point (module-level: picklable by name)
# ----------------------------------------------------------------------


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


class ParallelSweep:
    """Run offset sweeps in-process and shard scenario grids.

    Parameters
    ----------
    jobs:
        Worker processes for scenario grids; ``None`` uses the CPU
        count, ``<= 1`` runs grids in-process.  ``> 1`` runs each grid
        on the shared persistent pool for ``(jobs, mp_context)``
        (:func:`repro.backends.pooled.get_pooled_backend`).  Offset
        sweeps and DES spot checks run in-process whatever ``jobs`` is
        (the module docstring has the measurements).
    mp_context:
        ``multiprocessing`` start-method name; defaults to ``fork``
        where available (Linux) and ``spawn`` elsewhere.  Results are
        identical either way -- workers hold no inherited mutable state.
    backend:
        Sweep-kernel selection (:mod:`repro.backends`): a registered
        name (``"python"``, ``"numpy"``), ``"auto"``
        (default: the fastest importable kernel), or a
        :class:`repro.backends.SweepBackend` instance.  Results are
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
        """The kernel instance this executor's sweeps run."""
        from ..backends import resolve_backend

        return resolve_backend(self.backend)

    def pool(self):
        """The shared persistent pool this executor's grids run on, or
        ``None`` when they run in-process (``jobs <= 1``).  Resolving
        it boots nothing."""
        from ..backends.pooled import get_pooled_backend

        if self.jobs <= 1:
            return None
        return get_pooled_backend(self.jobs, self.mp_context)

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
        """:func:`repro.simulation.analytic.sweep_offsets` on the
        selected kernel, in-process and bit-identical to the serial
        call.

        Returns the :class:`SweepReport`, or with ``with_outcomes`` the
        pair ``(report, outcomes)``: the per-offset outcomes the report
        reduces, a sequence aligned with ``offsets`` (the worst-case
        engine reads its spot-checked offsets from it).  Either way the
        batch is evaluated once.
        """
        from ..backends import SweepParams

        params = SweepParams(protocol_e, protocol_f, horizon, model, turnaround)
        report, outcomes = self._resolve_backend().sweep_outcomes_batch(
            params, list(offsets)
        )
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
        """:func:`repro.simulation.analytic.evaluate_offsets` on the
        selected kernel, in-process: per-offset outcomes in input
        order."""
        from ..backends import SweepParams

        params = SweepParams(protocol_e, protocol_f, horizon, model, turnaround)
        return self._resolve_backend().evaluate_offsets_batch(
            params, list(offsets)
        )

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

        Each replay stops once every direction that can discover has
        discovered, which is all a :class:`DiscoveryOutcome` records,
        and, for integer schedules (spot checks have ideal clocks and
        no jitter), at the pair's periodicity point one joint
        hyperperiod past the boot transient
        (:func:`repro.simulation.runner._periodic_stop`, computed once
        per batch), where a still-undiscovered direction is
        deadlocked.  Float schedules (``float-period-pi``) have no stop
        and replay to the horizon.  The replays run in-process whatever
        ``jobs`` is.
        """
        from ..simulation.runner import _periodic_stop, _replay_pair

        stop = _periodic_stop(protocol_e, protocol_f, turnaround)
        return [
            _replay_pair(
                protocol_e, protocol_f, offset, horizon, model, turnaround,
                stop,
            )
            for offset in offsets
        ]

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
        (including the in-process serial path).  With ``jobs > 1`` a
        grid of two or more scenarios runs on the persistent pool in
        work-stealing submission order, so successive small grids stop
        paying pool startup.
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
