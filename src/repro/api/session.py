"""The lifecycle-managed experiment facade: :class:`Session`.

One session = one resolved runtime.  A :class:`Session` takes a
:class:`~repro.api.RuntimeProfile`, resolves the sweep backend **once**
(on first use, so merely constructing a session boots nothing), and
exposes the whole verb set over declarative
:class:`~repro.api.RunSpec` descriptions::

    from repro.api import RunSpec, RuntimeProfile, Session

    profile = RuntimeProfile(jobs=4)
    with Session(profile) as session:
        sweep = session.sweep(RunSpec(pair={"kind": "symmetric", "eta": 0.01}))
        check = session.worst_case(RunSpec(pair={"kind": "symmetric", "eta": 0.01}))
        grid = session.grid(RunSpec(grid={
            "factory": "dense_network",
            "axes": {"n_devices": [3, 5], "eta": [0.02]},
        }))
    # <- every worker process the session created is gone here.

Resource ownership
------------------

The session *owns* what it creates and releases it deterministically on
``close()`` / ``__exit__`` -- no reliance on ``atexit``:

* **The persistent pool** -- a ``jobs > 1`` session retains the
  shared pool for its ``(kernel, jobs, mp_context)``
  (:meth:`PooledBackend.retain`): nested sessions sharing one profile
  share one pool, and the pool shuts down exactly when the last
  session holding it exits.

A session installs **no** process-wide state: the listening-cache
registry keeps its fixed LRU cap, and the worst-case ladder prices its
tiers with the checked-in
:data:`~repro.simulation.ladder.REFERENCE_WEIGHTS`.  No profile field
can therefore change a result, which is what lets the store key
answers by ``(verb, RunSpec)`` alone.

Every verb returns a :class:`~repro.api.RunResult` carrying the spec
and profile snapshots, the resolved backend name and phase timings --
the full reproduction recipe -- and results are **bit-identical** to
the uncached reference computation for every backend/jobs combination
(pinned zoo-wide by ``tests/test_parallel_equivalence_zoo.py``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections import OrderedDict
from pathlib import PurePath
from typing import Mapping

from .result import network_result_payload, RunResult, sweep_report_payload
from .spec import build_grid, build_pair, build_scenario, RunSpec, RuntimeProfile

__all__ = ["Session"]

#: Built pairs a session keeps (see :meth:`Session._build_pair`),
#: least-recently-used evicted first.
PAIR_MEMO = 16


def _as_spec(spec) -> RunSpec:
    if isinstance(spec, RunSpec):
        return spec
    if isinstance(spec, Mapping):
        return RunSpec.from_dict(spec)
    raise TypeError(f"expected a RunSpec or mapping, got {spec!r}")


class Session:
    """A context-managed experiment runtime (see module docstring).

    Parameters
    ----------
    profile:
        The :class:`RuntimeProfile` to run under; ``None`` uses
        :meth:`RuntimeProfile.default` (environment-aware).
    store:
        Opt-in read-through/write-back result caching: a
        :class:`~repro.store.ResultStore`, a store directory path, or
        ``None`` (also settable via ``RuntimeProfile.store``).  With a
        store attached every verb first looks up the spec's
        content-addressed fingerprint and only computes on a miss,
        writing the result back; hits skip *all* computation.  Specs
        holding live objects have no declarative identity and always
        compute.
    **overrides:
        Field overrides applied on top of ``profile`` via
        :meth:`RuntimeProfile.replace` -- ``Session(jobs=4)`` is the
        short spelling of a one-field profile tweak.
    """

    def __init__(
        self, profile: RuntimeProfile | None = None, store=None, **overrides
    ):
        if profile is None:
            profile = RuntimeProfile.default()
        elif isinstance(profile, Mapping):
            profile = RuntimeProfile.from_dict(profile)
        elif isinstance(profile, (str, PurePath)):
            # A profile *file* -- the natural companion mistake to
            # RuntimeProfile.load(); honour it instead of storing a
            # string that would fail opaquely at first use.
            profile = RuntimeProfile.load(profile)
        elif not isinstance(profile, RuntimeProfile):
            raise TypeError(
                f"profile must be a RuntimeProfile, mapping, path or None, "
                f"got {profile!r}"
            )
        if overrides:
            profile = profile.replace(**overrides)
        self.profile = profile
        self.store = self._resolve_store(store)
        self._closed = False
        self._sweeper = None
        self._backend = None
        self._retained_pool = None
        self._retain_token = None
        self._pairs: OrderedDict[str, tuple] = OrderedDict()

    def _resolve_store(self, store):
        """Resolve the session's result store (explicit argument wins
        over ``profile.store``; ``None`` disables caching)."""
        if store is None:
            store = self.profile.store
        if store is None:
            return None
        from ..store import ResultStore

        if isinstance(store, ResultStore):
            return store
        if isinstance(store, (str, PurePath)):
            return ResultStore(store)
        raise TypeError(
            f"store must be a ResultStore, a directory path or None, "
            f"got {store!r}"
        )

    def _through_store(self, verb: str, spec: RunSpec, compute) -> RunResult:
        """Read-through/write-back dispatch for one verb call.

        A hit returns the stored result and records
        ``store_meta.lookup_seconds`` -- the stored ``timings`` stay
        untouched, so they always describe the compute that originally
        produced the numbers.

        ``store_meta`` is strictly **per call**: results are immutable
        and shared (the store hands every caller its one snapshot and
        remembers the computed result itself), so provenance rides on
        an O(1) ``dataclasses.replace`` view that shares everything
        else -- it can never reach another call's result or the
        persisted entry.
        """
        store = self.store
        if store is None:
            return compute(spec)
        from .spec import SpecError

        try:
            fingerprint = store.fingerprint(verb, spec)
        except SpecError:
            # Live objects in declarative slots: no stable identity.
            return compute(spec)
        t0 = time.perf_counter()
        cached = store.get(fingerprint)
        lookup = time.perf_counter() - t0
        if cached is not None:
            return dataclasses.replace(cached, store_meta={
                "hit": True,
                "fingerprint": fingerprint,
                "lookup_seconds": lookup,
            })
        result = compute(spec)
        store.put(fingerprint, result)
        return dataclasses.replace(result, store_meta={
            "hit": False,
            "fingerprint": fingerprint,
            "lookup_seconds": lookup,
        })

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "Session":
        if self._closed:
            raise RuntimeError("Session is closed; create a new one")
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release everything this session created (idempotent).

        Deterministic by design: pool workers are gone (or handed to
        an outer session still holding the shared pool) by the time
        this returns -- the ``atexit`` backstop exists only for
        executors used without a session.
        """
        if self._closed:
            return
        self._closed = True
        retained, self._retained_pool = self._retained_pool, None
        token, self._retain_token = self._retain_token, None
        if retained is not None:
            retained.release(token)

    # ------------------------------------------------------------------
    # Runtime resolution (once per session)
    # ------------------------------------------------------------------

    def _engine(self):
        """The session's :class:`~repro.parallel.ParallelSweep`, with the
        backend resolved exactly once (first verb).  Raises
        :class:`repro.backends.BackendUnavailable` for profiles naming a
        kernel this environment cannot run."""
        if self._closed:
            raise RuntimeError("Session is closed; create a new one")
        if self._sweeper is None:
            from ..parallel import ParallelSweep

            sweeper = ParallelSweep.from_profile(self.profile)
            try:
                resolved = sweeper._resolve_backend()
            except KeyError as exc:
                # An unknown backend *name* (REPRO_BACKEND typo, profile
                # file) is a config problem; surface it as one instead
                # of a KeyError traceback.  BackendUnavailable (a known
                # name this environment cannot run) passes through.
                from .spec import SpecError

                raise SpecError(
                    f"RuntimeProfile.backend: {exc.args[0]}"
                ) from exc
            pool = sweeper.pool()
            if pool is not None:
                self._retain_token = pool.retain()
                self._retained_pool = pool
            self._sweeper = sweeper
            self._backend = resolved
        return self._sweeper

    @property
    def backend(self):
        """The resolved :class:`repro.backends.SweepBackend` instance."""
        self._engine()
        return self._backend

    @property
    def backend_name(self) -> str:
        """The resolved kernel name (``"auto"`` pinned to what runs)."""
        return self.backend.name

    # ------------------------------------------------------------------
    # Spec resolution helpers
    # ------------------------------------------------------------------

    def _build_pair(self, pair) -> tuple:
        """:func:`~repro.api.spec.build_pair`, built once per session
        for each declarative pair.

        A client that asks for a pair's worst case and then its sweep
        would otherwise build the same immutable protocols twice.  The
        memo is keyed by the pair's compact key-sorted JSON, holds
        successes only (a pair that fails to build raises again on every
        call), and keeps at most :data:`PAIR_MEMO` pairs.  A pair of live
        :class:`~repro.core.sequences.NDProtocol` objects, or anything
        else that does not encode as JSON, bypasses it.
        """
        try:
            key = json.dumps(pair, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError):
            return build_pair(pair)
        built = self._pairs.get(key)
        if built is not None:
            self._pairs.move_to_end(key)
            return built
        built = build_pair(pair)
        self._pairs[key] = built
        if len(self._pairs) > PAIR_MEMO:
            self._pairs.popitem(last=False)
        return built

    def _pair_workload(self, spec: RunSpec):
        """(protocol_e, protocol_f, offsets, horizon, sampling) for a
        pair verb; ``sampling`` names what actually ran (``"explicit"``,
        ``"uniform"``, ``"critical"``, or ``"uniform-fallback"`` when a
        requested critical enumeration exceeded ``max_critical``)."""
        if spec.pair is None:
            raise ValueError("RunSpec.pair is required for this verb")
        protocol_e, protocol_f, base = self._build_pair(spec.pair)
        horizon = self._horizon_for(spec, base, protocol_e, protocol_f)
        if spec.offsets is not None:
            return protocol_e, protocol_f, list(spec.offsets), horizon, "explicit"
        offsets, sampling = self._derived_offsets(spec, protocol_e, protocol_f)
        return protocol_e, protocol_f, list(offsets), horizon, sampling

    @staticmethod
    def _pair_hyperperiod(protocol_e, protocol_f) -> int:
        return math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())

    def _horizon_for(self, spec: RunSpec, base, protocol_e, protocol_f) -> int:
        if spec.horizon is not None:
            return spec.horizon
        if base is None:
            base = self._pair_hyperperiod(protocol_e, protocol_f)
        return int(base) * spec.horizon_multiple

    def _derived_offsets(self, spec: RunSpec, protocol_e, protocol_f):
        """(offsets, sampling-actually-used) per the spec's policy.

        ``sampling="critical"`` enumerates through the session's
        resolved kernel (``critical_offsets(backend=...)``), so a numpy
        profile vectorizes the breakpoint generation as well as the
        sweep -- bit-identical offsets by the backend contract.
        """
        from ..simulation import critical_offsets, CriticalSetTooLarge

        sampling = spec.sampling
        if spec.sampling == "critical":
            try:
                return critical_offsets(
                    protocol_e,
                    protocol_f,
                    omega=spec.omega,
                    max_count=spec.max_critical,
                    backend=self.backend,
                    turnaround=spec.turnaround,
                ), "critical"
            except CriticalSetTooLarge:
                # Critical set exceeded max_critical: fall back to a
                # uniform sweep, and *say so* in the result payload --
                # a sampled sweep must never masquerade as exact.  Any
                # other ValueError is a genuine kernel bug and
                # propagates.
                sampling = "uniform-fallback"
        hyper = self._pair_hyperperiod(protocol_e, protocol_f)
        step = max(1, hyper // spec.samples)
        return range(0, hyper, step), sampling

    def _result(self, verb, spec, payload, raw, timings) -> RunResult:
        return RunResult(
            verb=verb,
            spec=spec.describe(),
            profile=self.profile.describe(),
            backend=self._backend.name,
            timings=timings,
            payload=payload,
            raw=raw,
        )

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    def sweep(self, spec) -> RunResult:
        """Exact phase-offset sweep of a protocol pair.

        ``raw``: the :class:`repro.simulation.SweepReport`; ``payload``
        mirrors its fields plus the offset count.
        """
        return self._through_store("sweep", _as_spec(spec), self._sweep)

    def _sweep(self, spec: RunSpec) -> RunResult:
        t0 = time.perf_counter()
        protocol_e, protocol_f, offsets, horizon, sampling = (
            self._pair_workload(spec)
        )
        engine = self._engine()
        t1 = time.perf_counter()
        report = engine.sweep_offsets(
            protocol_e,
            protocol_f,
            offsets,
            horizon,
            spec.reception_model(),
            spec.turnaround,
        )
        t2 = time.perf_counter()
        payload = dict(
            sweep_report_payload(report),
            horizon=horizon,
            offsets=len(offsets),
            sampling=sampling,
            protocols=[protocol_e.name, protocol_f.name],
            eta=[protocol_e.eta, protocol_f.eta],
        )
        return self._result(
            "sweep",
            spec,
            payload=payload,
            raw=report,
            timings={"build": t1 - t0, "run": t2 - t1, "total": t2 - t0},
        )

    def worst_case(self, spec) -> RunResult:
        """Worst-case latency with DES spot-check cross-validation.

        ``raw``: the :class:`repro.simulation.PairWorstCase`.  The
        session's resolved kernel runs the whole pipeline -- critical
        enumeration (``critical_offsets(backend=...)``, vectorized
        under numpy) and the sweep; with ``jobs > 1`` the sweep and
        long spot-check batches shard over the persistent pool.

        Exact by default.  With ``spec.budget_ms`` set (and
        ``spec.fidelity`` ``"auto"``/``"bounded"``), the same tier
        ladder answers within the budget instead: analytic bound first,
        the exact enumeration only when its priced sweep fits, a nested
        low-discrepancy dense tier over what remains, then one batch of
        DES spot checks sized to the leftover budget.  The verdict
        (``fidelity``, ``bound_interval``) and per-tier provenance ride
        in both ``raw`` and ``payload["provenance"]``.
        """
        return self._through_store(
            "worst_case", _as_spec(spec), self._worst_case
        )

    def _worst_case(self, spec: RunSpec) -> RunResult:
        import dataclasses

        from ..simulation.runner import _verified_worst_case_impl

        t0 = time.perf_counter()
        if spec.pair is None:
            raise ValueError("RunSpec.pair is required for worst_case")
        protocol_e, protocol_f, base = self._build_pair(spec.pair)
        horizon = self._horizon_for(spec, base, protocol_e, protocol_f)
        engine = self._engine()
        t1 = time.perf_counter()
        outcome = _verified_worst_case_impl(
            protocol_e,
            protocol_f,
            horizon,
            omega=spec.omega,
            reception_model=spec.reception_model(),
            turnaround=spec.turnaround,
            max_critical=spec.max_critical,
            des_spot_checks=spec.des_spot_checks,
            fallback_samples=spec.fallback_samples,
            sweeper=engine,
            budget_ms=spec.budget_ms,
            analytic_upper=base,
        )
        t2 = time.perf_counter()
        payload = {
            "analytic": dataclasses.asdict(outcome.analytic),
            "des_agrees": outcome.des_agrees,
            "offsets_checked": outcome.offsets_checked,
            "horizon": horizon,
            "protocols": [protocol_e.name, protocol_f.name],
            "eta": [protocol_e.eta, protocol_f.eta],
            "provenance": {
                "fidelity": outcome.fidelity,
                "bound_interval": list(outcome.bound_interval)
                if outcome.bound_interval is not None else None,
                "tiers": [dict(tier) for tier in outcome.tiers],
                "fallback_used": outcome.fallback_used,
                "budget_ms": outcome.budget_ms,
            },
        }
        return self._result(
            "worst_case",
            spec,
            payload=payload,
            raw=outcome,
            timings={"build": t1 - t0, "run": t2 - t1, "total": t2 - t0},
        )

    def grid(self, spec) -> RunResult:
        """Run a scenario grid through the event-driven simulator.

        ``raw``: the list of :class:`repro.simulation.NetworkResult`
        objects in grid order.  Results are seed-stable: the same for
        every ``jobs`` and scheduling order.
        """
        return self._through_store("grid", _as_spec(spec), self._grid)

    def _grid(self, spec: RunSpec) -> RunResult:
        t0 = time.perf_counter()
        if spec.grid is None:
            raise ValueError("RunSpec.grid is required for grid")
        scenarios = build_grid(spec.grid)
        engine = self._engine()
        t1 = time.perf_counter()
        results = engine.map_scenarios(
            scenarios,
            base_seed=spec.seed,
            reception_model=spec.reception_model(),
            turnaround=spec.turnaround,
            advertising_jitter=spec.advertising_jitter,
        )
        t2 = time.perf_counter()
        payload = {
            "scenarios": [scenario.name for scenario in scenarios],
            "results": [network_result_payload(result) for result in results],
        }
        return self._result(
            "grid",
            spec,
            payload=payload,
            raw=results,
            timings={"build": t1 - t0, "run": t2 - t1, "total": t2 - t0},
        )

    def simulate(self, spec) -> RunResult:
        """Run one scenario through the event-driven simulator.

        ``raw``: the :class:`repro.simulation.NetworkResult`.
        """
        return self._through_store("simulate", _as_spec(spec), self._simulate)

    def _simulate(self, spec: RunSpec) -> RunResult:
        from ..simulation.runner import _run_scenario

        t0 = time.perf_counter()
        if spec.scenario is None:
            raise ValueError("RunSpec.scenario is required for simulate")
        scenario = build_scenario(spec.scenario)
        self._engine()  # resolve provenance even though DES needs no kernel
        t1 = time.perf_counter()
        result = _run_scenario(
            scenario,
            seed=spec.seed,
            reception_model=spec.reception_model(),
            turnaround=spec.turnaround,
            advertising_jitter=spec.advertising_jitter,
        )
        t2 = time.perf_counter()
        payload = dict(
            network_result_payload(result),
            scenario=scenario.name,
            description=scenario.description,
        )
        return self._result(
            "simulate",
            spec,
            payload=payload,
            raw=result,
            timings={"build": t1 - t0, "run": t2 - t1, "total": t2 - t0},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else (
            f"backend={self._backend.name}" if self._backend else "unresolved"
        )
        return f"Session(jobs={self.profile.jobs}, {state})"
