"""The unified experiment API: declarative specs, one managed runtime.

This package is the single public entry point PR 4 built over the
runtime stack of PRs 1-3.  Two serializable dataclasses separate *what*
an experiment is from *how* it runs:

* :class:`RunSpec` -- protocols / scenario / grid, reception model,
  fidelity knobs, DES spot-check policy (:mod:`repro.api.spec`);
* :class:`RuntimeProfile` -- backend, jobs, mp context and result-store
  directory, none of which can change a result; loadable from TOML/JSON
  (``RuntimeProfile.load``, the CLI's ``--profile``);

and one context-managed facade runs them:

* :class:`Session` -- resolves the backend once, owns the persistent
  pool it retains (via refcounts) and releases it deterministically on
  ``__exit__``;
* :class:`RunResult` -- what each verb returns: payload + provenance
  (spec, profile, resolved backend, timings), JSON round-trippable into
  ``results/``.

Sessions optionally attach a content-addressed
:class:`~repro.store.ResultStore` (``Session(store=...)`` or
``RuntimeProfile.store``) for read-through/write-back caching keyed by
spec fingerprint, and :mod:`repro.campaign` orchestrates whole
parameter lattices of specs resumably on top of that.

Worst-case queries carry a per-query **fidelity budget** (PR 10):
``RunSpec.fidelity`` selects the policy (``"exact"`` -- the default,
bit-identical to every prior release; ``"bounded"`` -- best bound
within ``RunSpec.budget_ms``; ``"auto"`` -- exact when unbudgeted,
budgeted otherwise), and the adaptive ladder behind
``Session.worst_case`` prices its tiers (analytic bound, critical
enumeration, dense low-discrepancy sweep, DES spot checks) with the
checked-in ``REFERENCE_WEIGHTS`` of :mod:`repro.simulation.ladder`.  Every
:class:`~repro.simulation.PairWorstCase` carries the **provenance
contract**: ``fidelity`` of the verdict, the one-way ``bound_interval``
(``(w, w)`` when exact), the ``tiers`` that ran with their planner
estimates (never measured wall-clock, so identical queries produce
identical provenance), ``fallback_used``, and the ``budget_ms`` it was
answered under -- serialized under ``payload["provenance"]`` and
rehydrated by :func:`repro.api.result.rehydrate_raw`.

Runtime behaviour is set only here: a :class:`RuntimeProfile` on a
:class:`Session`, or a :class:`repro.parallel.ParallelSweep` executor
built with ``jobs``/``backend``.  The plain functions of
:mod:`repro.simulation` take no runtime kwargs: ``evaluate_offsets`` /
``sweep_offsets`` are the uncached reference computation, and
``verified_worst_case`` / ``sweep_network_grid`` run in-process on the
auto-detected kernel.

Quickstart::

    from repro.api import RunSpec, RuntimeProfile, Session

    with Session(RuntimeProfile(jobs=4)) as session:
        result = session.sweep(RunSpec(pair={"kind": "symmetric", "eta": 0.01}))
        print(result.raw.worst_one_way, result.backend, result.timings)
        result.save("results")
"""

from .result import RunResult
from .session import Session
from .spec import (
    build_grid,
    build_pair,
    build_scenario,
    RunSpec,
    RuntimeProfile,
    SpecError,
)

__all__ = [
    "build_grid",
    "build_pair",
    "build_scenario",
    "RunResult",
    "RunSpec",
    "RuntimeProfile",
    "Session",
    "SpecError",
]
