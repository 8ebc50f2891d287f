"""Declarative experiment configuration: :class:`RunSpec` and
:class:`RuntimeProfile`.

Three PRs of runtime growth left the public surface threading
``backend=``/``jobs=``/``mp_context=`` kwargs through every entry
point.  This module splits that surface into two serializable
dataclasses with a strict separation of concerns:

* :class:`RunSpec` -- **what** to run: the protocol pair or scenario
  (declaratively, so a spec can live in a JSON file next to its
  results), the reception model, fidelity knobs (turnaround,
  advertising jitter, seed) and the DES spot-check policy.
* :class:`RuntimeProfile` -- **how** to run it: sweep-kernel backend,
  worker count, multiprocessing start method and result-store
  directory.  No profile field reaches a result.  Profiles load from
  TOML or JSON (``RuntimeProfile.load``), so a deployment describes its
  runtime once instead of re-passing flags at every callsite.

Both reject unknown fields on deserialization -- a typo in a profile
file fails loudly instead of silently running with defaults -- and both
round-trip exactly through ``to_dict``/``from_dict`` and
``to_json``/``from_json``.

Live in-memory objects (``NDProtocol`` pairs, :class:`Scenario` lists)
are also accepted in the ``pair``/``scenario``/``grid`` slots for
programmatic use; such specs run fine but refuse to serialize with a
clear error, since an object graph is not provenance.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "RunSpec",
    "RuntimeProfile",
    "SpecError",
    "build_grid",
    "build_pair",
    "build_scenario",
]


class SpecError(ValueError):
    """A RunSpec/RuntimeProfile is malformed, holds unknown fields, or
    cannot be serialized (live objects in declarative slots)."""


_JSON_SCALARS = (str, int, float, bool, type(None))


def _is_plain_data(value: Any) -> bool:
    """Is ``value`` composed purely of JSON-shaped data?"""
    if isinstance(value, _JSON_SCALARS):
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_plain_data(item) for item in value)
    if isinstance(value, Mapping):
        return all(
            isinstance(key, str) and _is_plain_data(item)
            for key, item in value.items()
        )
    return False


def _plain(value: Any) -> Any:
    """Normalize tuples to lists so the output is JSON-stable."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    return value


#: Runtime knobs that no longer exist, with what replaced them: a saved
#: profile or spec still naming one fails loudly instead of running
#: under a configuration it did not ask for.
_REMOVED_FIELDS = {
    "schedule": "grids always use longest-first work stealing",
    "shared_memory": "the persistent pool always ships patterns through "
                     "its shared-memory arena",
    "chunks_per_job": "offset batches always split into 4 chunks per job",
}


def _from_mapping(cls, data: Mapping) -> Any:
    """Shared strict constructor: reject unknown fields loudly."""
    if not isinstance(data, Mapping):
        raise SpecError(f"{cls.__name__} payload must be a mapping, got {data!r}")
    for name, replacement in _REMOVED_FIELDS.items():
        if name in data:
            raise SpecError(
                f"{cls.__name__} field {name!r} was removed: {replacement}"
            )
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise SpecError(
            f"unknown {cls.__name__} field(s): {sorted(unknown)}; "
            f"known fields: {sorted(known)}"
        )
    return cls(**data)


class _SerializableConfig:
    """The one serialization contract both config dataclasses share.

    Field-driven (``dataclasses.fields``), so subclasses adding fields
    get serialization, strict deserialization and provenance snapshots
    for free -- there is exactly one place live-object detection or
    JSON normalization can ever need fixing.
    """

    def to_dict(self) -> dict:
        """Exact serializable form; raises :class:`SpecError` when a
        field holds live objects instead of declarative data."""
        payload = {}
        for config_field in fields(self):
            value = getattr(self, config_field.name)
            if not _is_plain_data(value):
                raise SpecError(
                    f"{type(self).__name__}.{config_field.name} holds a live "
                    f"object and cannot be serialized; use a declarative "
                    f"description (live values are runtime-only)"
                )
            payload[config_field.name] = _plain(value)
        return payload

    def describe(self) -> dict:
        """Best-effort provenance snapshot: like :meth:`to_dict` but
        live objects degrade to ``repr`` strings instead of raising --
        every :class:`~repro.api.RunResult` can always record
        *something*."""
        payload = {}
        for config_field in fields(self):
            value = getattr(self, config_field.name)
            payload[config_field.name] = (
                _plain(value) if _is_plain_data(value) else repr(value)
            )
        return payload

    @classmethod
    def from_dict(cls, data: Mapping):
        return _from_mapping(cls, data)

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, payload: str):
        return cls.from_dict(json.loads(payload))


# ----------------------------------------------------------------------
# Declarative builders: pair / scenario / grid descriptions -> objects
# ----------------------------------------------------------------------


def build_pair(pair) -> tuple:
    """Resolve a :attr:`RunSpec.pair` description to
    ``(protocol_e, protocol_f, horizon_base)``.

    ``horizon_base`` is the natural latency scale of the pair (the
    synthesized worst-case latency, a zoo protocol's predicted worst
    case, or ``None`` when unknown) -- :class:`~repro.api.Session`
    multiplies it by ``RunSpec.horizon_multiple`` when the spec gives
    no explicit horizon.

    Declarative forms (all JSON-serializable):

    * ``{"kind": "symmetric", "eta": .., "omega": .., "alpha": ..}`` --
      both devices run the bound-attaining symmetric protocol.
    * ``{"kind": "symmetric-split", ...}`` -- same synthesis, split into
      a beacons-only advertiser and a windows-only scanner (the one-way
      validation shape).
    * ``{"kind": "asymmetric", "eta_e": .., "eta_f": .., ...}`` -- the
      Theorem-5.7 gateway/peripheral pair.
    * ``{"kind": "zoo", "protocol": "Disco", "params": {...}}`` -- any
      class exported by :mod:`repro.protocols` with a ``device(Role)``
      factory.

    A 2-sequence of ``NDProtocol`` objects passes through unchanged
    (non-declarative; such specs cannot serialize).
    """
    from ..core.sequences import NDProtocol

    if (
        isinstance(pair, (tuple, list))
        and len(pair) == 2
        and all(isinstance(p, NDProtocol) for p in pair)
    ):
        return pair[0], pair[1], None
    if not isinstance(pair, Mapping):
        raise SpecError(
            f"RunSpec.pair must be a declarative mapping or a pair of "
            f"NDProtocol objects, got {pair!r}"
        )
    spec = dict(pair)
    kind = spec.pop("kind", None)
    if kind in ("symmetric", "symmetric-split"):
        from ..core.optimal import synthesize_symmetric

        protocol, design = synthesize_symmetric(
            spec.pop("omega", 32), spec.pop("eta", 0.01), spec.pop("alpha", 1.0)
        )
        if spec:
            raise SpecError(f"unknown pair parameter(s) for {kind!r}: {sorted(spec)}")
        if kind == "symmetric":
            return protocol, protocol, design.worst_case_latency
        advertiser = NDProtocol(
            beacons=design.beacons, reception=None, name="advertiser"
        )
        scanner = NDProtocol(
            beacons=None, reception=design.reception, name="scanner"
        )
        return advertiser, scanner, design.worst_case_latency
    if kind == "asymmetric":
        from ..core.optimal import synthesize_asymmetric

        gateway, peripheral, design_gp, design_pg = synthesize_asymmetric(
            spec.pop("omega", 32),
            spec.pop("eta_e", 0.1),
            spec.pop("eta_f", 0.01),
            spec.pop("alpha", 1.0),
        )
        if spec:
            raise SpecError(f"unknown pair parameter(s) for {kind!r}: {sorted(spec)}")
        base = max(design_gp.worst_case_latency, design_pg.worst_case_latency)
        return gateway, peripheral, base
    if kind == "zoo":
        from .. import protocols as protocol_zoo
        from ..protocols import Role

        name = spec.pop("protocol", None)
        params = spec.pop("params", {})
        if spec:
            raise SpecError(f"unknown pair parameter(s) for {kind!r}: {sorted(spec)}")
        factory = getattr(protocol_zoo, str(name), None)
        if factory is None:
            raise SpecError(f"unknown zoo protocol {name!r}")
        instance = factory(**params)
        base = None
        predictor = getattr(instance, "predicted_worst_case_latency", None)
        if callable(predictor):
            try:
                base = int(predictor())
            except (TypeError, ValueError, OverflowError):
                base = None
        return instance.device(Role.E), instance.device(Role.F), base
    from ..protocols.registry import pair_kinds, pair_schema

    schema = pair_schema(kind)
    if schema is not None:
        # A family registered via repro.protocols.register_pair_schema:
        # new pair kinds plug in without touching this module.
        try:
            return schema.build(spec)
        except SpecError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise SpecError(
                f"invalid pair parameters for kind {kind!r}: {exc}"
            ) from exc
    raise SpecError(
        f"unknown pair kind {kind!r}; registered kinds: {pair_kinds()}"
    )


def build_scenario(scenario):
    """Resolve a :attr:`RunSpec.scenario` description to a
    :class:`repro.workloads.Scenario`.

    Declarative form: ``{"factory": "dense_network", "params": {...}}``
    where ``factory`` names an entry of
    :data:`repro.workloads.SCENARIO_FACTORIES`.  A ready
    :class:`Scenario` instance passes through unchanged.
    """
    from ..workloads import Scenario, SCENARIO_FACTORIES

    if isinstance(scenario, Scenario):
        return scenario
    if not isinstance(scenario, Mapping):
        raise SpecError(
            f"RunSpec.scenario must be a declarative mapping or a Scenario, "
            f"got {scenario!r}"
        )
    spec = dict(scenario)
    name = spec.pop("factory", None)
    params = spec.pop("params", {})
    if spec:
        raise SpecError(f"unknown scenario key(s): {sorted(spec)}")
    try:
        factory = SCENARIO_FACTORIES[name]
    except KeyError:
        raise SpecError(
            f"unknown scenario factory {name!r}; registered: "
            f"{sorted(SCENARIO_FACTORIES)}"
        ) from None
    return factory(**params)


def build_grid(grid) -> list:
    """Resolve a :attr:`RunSpec.grid` description to a scenario list.

    Declarative form: ``{"factory": "dense_network", "axes": {...}}``
    expanded through :func:`repro.workloads.scenario_grid` (row-major,
    last axis fastest -- the order per-index seeds derive from).  A list
    of :class:`Scenario` objects (or declarative scenario mappings)
    passes through element-wise.
    """
    from ..workloads import scenario_grid, SCENARIO_FACTORIES

    if isinstance(grid, Mapping):
        spec = dict(grid)
        name = spec.pop("factory", None)
        axes = spec.pop("axes", None)
        if spec:
            raise SpecError(f"unknown grid key(s): {sorted(spec)}")
        try:
            factory = SCENARIO_FACTORIES[name]
        except KeyError:
            raise SpecError(
                f"unknown scenario factory {name!r}; registered: "
                f"{sorted(SCENARIO_FACTORIES)}"
            ) from None
        if not isinstance(axes, Mapping) or not axes:
            raise SpecError("grid spec needs a non-empty 'axes' mapping")
        return scenario_grid(factory, **{k: list(v) for k, v in axes.items()})
    if isinstance(grid, (list, tuple)):
        return [build_scenario(item) for item in grid]
    raise SpecError(
        f"RunSpec.grid must be a factory/axes mapping or a scenario list, "
        f"got {grid!r}"
    )


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------

_MODELS = ("point", "any-overlap", "containment")
_SAMPLINGS = ("uniform", "critical")
_FIDELITIES = ("exact", "bounded", "auto")


@dataclass
class RunSpec(_SerializableConfig):
    """**What** to run -- one declarative experiment description.

    Pair experiments (:meth:`Session.sweep <repro.api.Session.sweep>`,
    :meth:`Session.worst_case <repro.api.Session.worst_case>`) use
    ``pair`` plus the sweep/spot-check knobs; scenario experiments
    (:meth:`Session.simulate <repro.api.Session.simulate>`,
    :meth:`Session.grid <repro.api.Session.grid>`) use ``scenario`` /
    ``grid`` plus the fidelity knobs.  Unused fields are ignored by the
    other verbs, so one spec can drive a sweep *and* its DES
    counterpart.
    """

    pair: Any = None
    """Pair description (see :func:`build_pair`) for sweep/worst-case."""
    scenario: Any = None
    """Scenario description (see :func:`build_scenario`) for simulate."""
    grid: Any = None
    """Grid description (see :func:`build_grid`) for grid."""
    offsets: list | None = None
    """Explicit phase offsets; ``None`` derives them via ``sampling``."""
    sampling: str = "uniform"
    """Offset derivation when ``offsets`` is None: ``"uniform"`` takes
    ``samples`` evenly spaced offsets over the pair hyperperiod,
    ``"critical"`` enumerates the exact critical-offset set."""
    samples: int = 2048
    """Uniform-sampling resolution for ``sampling="uniform"``."""
    horizon: int | None = None
    """Simulation/sweep horizon in microseconds; ``None`` derives it
    from the pair's natural latency scale times ``horizon_multiple``."""
    horizon_multiple: int = 3
    model: str = "point"
    """Reception model name (:class:`repro.simulation.ReceptionModel`)."""
    turnaround: int = 0
    advertising_jitter: int = 0
    seed: int = 0
    omega: int | None = None
    """Packet length for critical-offset enumeration (worst-case verb)."""
    des_spot_checks: int = 16
    """DES spot-check policy: replays cross-checked per worst-case run."""
    max_critical: int = 200_000
    fallback_samples: int = 4096
    fidelity: str = "exact"
    """Worst-case engine fidelity policy (the adaptive ladder):

    * ``"exact"`` (default) -- the full exact ladder: critical-offset
      enumeration, complete sweep, uniform DES spot checks.  Refuses a
      ``budget_ms`` (an exact answer cannot promise a latency budget).
    * ``"bounded"`` -- best bound within ``budget_ms`` (required): the
      planner prices each tier with the fitted scheduler cost weights
      and never *plans* work beyond the budget; the result carries a
      ``bound_interval`` and is marked exact only when the exact tier
      fit the budget.
    * ``"auto"`` -- exact when no ``budget_ms`` is given, budgeted
      (identical to ``"bounded"``) when one is.
    """
    budget_ms: float | None = None
    """Per-query compute budget in milliseconds for the worst-case
    ladder planner (``fidelity="bounded"``/``"auto"``); ``None`` means
    unbudgeted."""

    def __post_init__(self) -> None:
        try:
            self._validate()
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            # Wrong-typed field values (e.g. samples = "x" from a spec
            # file) are config problems, not crashes.
            raise SpecError(f"invalid RunSpec field value: {exc}") from exc

    def _validate(self) -> None:
        if self.model not in _MODELS:
            raise SpecError(
                f"unknown reception model {self.model!r}; one of {_MODELS}"
            )
        if self.sampling not in _SAMPLINGS:
            raise SpecError(
                f"unknown sampling {self.sampling!r}; one of {_SAMPLINGS}"
            )
        for name in ("samples", "horizon_multiple"):
            if getattr(self, name) < 1:
                raise SpecError(f"RunSpec.{name} must be >= 1")
        for name in ("des_spot_checks", "max_critical", "fallback_samples",
                     "turnaround", "advertising_jitter"):
            if getattr(self, name) < 0:
                raise SpecError(f"RunSpec.{name} must be >= 0")
        if self.fidelity not in _FIDELITIES:
            raise SpecError(
                f"unknown fidelity {self.fidelity!r}; one of {_FIDELITIES}"
            )
        if self.budget_ms is not None and not float(self.budget_ms) > 0:
            raise SpecError(
                f"RunSpec.budget_ms must be a positive number of "
                f"milliseconds or None, got {self.budget_ms!r}"
            )
        if self.fidelity == "bounded" and self.budget_ms is None:
            raise SpecError(
                "fidelity='bounded' needs a budget_ms to bound against; "
                "use fidelity='exact' (or 'auto') for unbudgeted queries"
            )
        if self.fidelity == "exact" and self.budget_ms is not None:
            raise SpecError(
                "fidelity='exact' cannot honour a budget_ms; use "
                "fidelity='bounded' or 'auto' for budgeted queries"
            )

    # ------------------------------------------------------------------
    def reception_model(self):
        """The spec's model as a :class:`repro.simulation.ReceptionModel`."""
        from ..simulation import ReceptionModel

        return ReceptionModel(self.model)


# ----------------------------------------------------------------------
# RuntimeProfile
# ----------------------------------------------------------------------


@dataclass
class RuntimeProfile(_SerializableConfig):
    """**How** to run -- the runtime policy a :class:`~repro.api.Session`
    applies to every verb.

    One profile replaces per-call ``backend=``/``jobs=``/``mp_context=``
    kwarg plumbing: resolve it once per session, not once per call.
    No field changes a result -- only where and how fast it is
    computed, and where it is stored.  Profiles are plain data -- load
    one from TOML or JSON with :meth:`load`, or build the environment
    default with :meth:`default` (honouring ``REPRO_BACKEND``,
    ``REPRO_JOBS`` and ``REPRO_PROFILE``).
    """

    backend: Any = "auto"
    """Sweep-kernel selection (:mod:`repro.backends` name or instance)."""
    jobs: int | None = 1
    """Worker processes; ``None`` = CPU count.  ``<= 1`` runs everything
    in-process; ``> 1`` runs every sharded batch (offset sweeps, long
    DES spot-check batches, scenario grids) on the one persistent pool
    shared per ``(kernel, jobs, mp_context)``."""
    mp_context: str | None = None
    """Multiprocessing start method; ``None`` = platform default."""
    store: str | None = None
    """Result-store directory for read-through/write-back caching of
    session verbs (:mod:`repro.store`); ``None`` disables the store.
    A runtime knob: never part of result fingerprints."""

    def __post_init__(self) -> None:
        try:
            self._validate()
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            # Wrong-typed field values (e.g. jobs = "x" in a profile
            # file -- valid TOML, wrong type) are config problems, not
            # crashes.
            raise SpecError(f"invalid RuntimeProfile field value: {exc}") from exc

    def _validate(self) -> None:
        if self.backend == "pooled":
            raise SpecError(
                "RuntimeProfile.backend 'pooled' was removed: jobs > 1 now "
                "selects the persistent pool (name a kernel, or 'auto')"
            )
        if self.jobs is not None and self.jobs < 0:
            raise SpecError(f"jobs must be non-negative, got {self.jobs}")

    # ------------------------------------------------------------------
    def replace(self, **overrides) -> "RuntimeProfile":
        """A copy with ``overrides`` applied (validation re-runs)."""
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_toml(cls, payload: str) -> "RuntimeProfile":
        import tomllib

        return cls.from_dict(tomllib.loads(payload))

    @classmethod
    def load(cls, path) -> "RuntimeProfile":
        """Load a profile from a ``.toml`` or ``.json`` file (the CLI's
        ``--profile`` flag).  Extension picks the parser; anything else
        tries JSON first, then TOML.  A missing file or unparseable
        content raises :class:`SpecError` -- a config problem, not a
        crash."""
        import tomllib

        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise SpecError(f"cannot read profile {path}: {exc}") from exc
        suffix = path.suffix.lower()
        try:
            if suffix == ".toml":
                return cls.from_toml(text)
            if suffix == ".json":
                return cls.from_json(text)
            try:
                return cls.from_json(text)
            except json.JSONDecodeError:
                return cls.from_toml(text)
        except (json.JSONDecodeError, tomllib.TOMLDecodeError) as exc:
            raise SpecError(f"malformed profile {path}: {exc}") from exc

    @classmethod
    def default(cls) -> "RuntimeProfile":
        """The environment-default profile.

        ``REPRO_PROFILE`` (a TOML/JSON path) seeds the profile;
        ``REPRO_BACKEND`` and ``REPRO_JOBS`` override individual
        fields -- which is how CI exercises the examples under both the
        ``python`` and ``numpy`` kernels without touching their source.
        """
        profile_path = os.environ.get("REPRO_PROFILE")
        profile = cls.load(profile_path) if profile_path else cls()
        overrides: dict[str, Any] = {}
        if os.environ.get("REPRO_BACKEND"):
            overrides["backend"] = os.environ["REPRO_BACKEND"]
        if os.environ.get("REPRO_JOBS"):
            try:
                overrides["jobs"] = int(os.environ["REPRO_JOBS"])
            except ValueError as exc:
                raise SpecError(
                    f"REPRO_JOBS must be an integer, "
                    f"got {os.environ['REPRO_JOBS']!r}"
                ) from exc
        return profile.replace(**overrides) if overrides else profile
