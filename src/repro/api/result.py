"""Typed run results with provenance: what ran, how, and what came out.

Every :class:`~repro.api.Session` verb returns a :class:`RunResult`
carrying the full reproduction recipe -- the declarative spec snapshot,
the runtime profile, the *resolved* backend name (so ``"auto"`` is
pinned to what actually ran) and wall-clock timings -- next to a
JSON-shaped payload of the numbers.  ``to_json``/``from_json``
round-trip exactly, and :meth:`save` drops the result into
``results/`` beside the repository's committed CSV artifacts.

The live objects a verb produced (a :class:`SweepReport`, a
:class:`PairWorstCase`, :class:`NetworkResult` lists) stay reachable on
:attr:`RunResult.raw` for in-process consumers; ``raw`` is excluded
from serialization and equality, so a deserialized result compares
equal to the one that was saved.

A :class:`RunResult` is immutable, its mappings and lists included
(:func:`_freeze`), so one instance can be shared by every caller: the
result store, coalesced service waiters and the wire encoder never copy
it.  Treat ``raw`` as read-only too; it is shared the same way.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "RunResult",
    "network_result_payload",
    "rehydrate_raw",
    "sweep_report_payload",
]


def sweep_report_payload(report) -> dict:
    """JSON-shaped form of a :class:`repro.simulation.SweepReport`."""
    return dataclasses.asdict(report)


def network_result_payload(result) -> dict:
    """JSON-shaped form of a :class:`repro.simulation.NetworkResult`.

    ``discovery_times`` keys are ``(receiver, sender)`` tuples; they
    serialize as ``"receiver<-sender"`` strings.
    """
    return {
        "n_nodes": result.n_nodes,
        "horizon": result.horizon,
        "pairs_discovered": result.pairs_discovered,
        "pairs_expected": result.pairs_expected,
        "discovery_rate": result.discovery_rate,
        "total_transmissions": result.total_transmissions,
        "total_collisions": result.total_collisions,
        "packets_lost_to_collisions": result.packets_lost_to_collisions,
        "median_latency": result.quantile(0.5),
        "discovery_times": {
            f"{receiver}<-{sender}": time
            for (receiver, sender), time in sorted(
                result.discovery_times.items()
            )
        },
    }


def _network_from_payload(payload: dict):
    """Inverse of :func:`network_result_payload` (derived fields are
    properties and rebuild themselves)."""
    from ..simulation.runner import NetworkResult

    def _side(token: str):
        try:
            return int(token)
        except ValueError:
            return token

    discovery_times = {}
    for key, value in payload.get("discovery_times", {}).items():
        receiver, _, sender = key.partition("<-")
        discovery_times[(_side(receiver), _side(sender))] = value
    return NetworkResult(
        n_nodes=payload["n_nodes"],
        horizon=payload["horizon"],
        discovery_times=discovery_times,
        total_transmissions=payload["total_transmissions"],
        total_collisions=payload["total_collisions"],
        packets_lost_to_collisions=payload["packets_lost_to_collisions"],
    )


def rehydrate_raw(verb: str, payload: dict):
    """Best-effort reconstruction of :attr:`RunResult.raw` from a
    deserialized payload.

    The payloads are lossless projections of the live result objects
    (``raw`` is only excluded from serialization because an object graph
    is not provenance), so a store hit can hand consumers the same live
    types a fresh run would -- a :class:`SweepReport`, a
    :class:`PairWorstCase`, :class:`NetworkResult` (lists).  Returns
    ``None`` when the payload shape is not recognized; callers must
    treat ``raw`` as optional either way.
    """
    try:
        if verb == "sweep":
            from ..simulation.analytic import SweepReport

            names = {f.name for f in fields(SweepReport)}
            return SweepReport(
                **{k: v for k, v in payload.items() if k in names}
            )
        if verb == "worst_case":
            from ..simulation.analytic import SweepReport
            from ..simulation.runner import PairWorstCase

            # Pre-PR-10 payloads carry no provenance block; rebuild with
            # the dataclass defaults so old stores keep rehydrating.
            provenance = payload.get("provenance") or {}
            interval = provenance.get("bound_interval")
            return PairWorstCase(
                analytic=SweepReport(**payload["analytic"]),
                des_agrees=payload["des_agrees"],
                offsets_checked=payload["offsets_checked"],
                fidelity=provenance.get("fidelity", "exact"),
                bound_interval=tuple(interval)
                if interval is not None else None,
                tiers=tuple(dict(tier)
                            for tier in provenance.get("tiers", ())),
                fallback_used=provenance.get("fallback_used", False),
                budget_ms=provenance.get("budget_ms"),
            )
        if verb == "simulate":
            # The simulate payload embeds the network fields directly
            # (plus scenario/description, which the rebuild ignores).
            return _network_from_payload(payload)
        if verb == "grid":
            return [
                _network_from_payload(item) for item in payload["results"]
            ]
    except (KeyError, TypeError, ValueError, ImportError):
        return None
    return None


#: ``json.dumps(..., separators=(",", ":"))`` without building an
#: encoder per call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _read_only(*args, **kwargs):
    raise TypeError(
        "a RunResult is read-only; copy its data, or derive a changed "
        "result with dataclasses.replace"
    )


class _FrozenDict(dict):
    """A read-only ``dict``: JSON encoders and ``==`` treat it as the
    plain dict it is, and every mutator raises ``TypeError``."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _FrozenDict, (dict(self),)


class _FrozenList(list):
    """A read-only ``list`` (see :class:`_FrozenDict`)."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = clear = extend = insert = pop = remove = _read_only
    reverse = sort = _read_only

    def __reduce__(self):
        return _FrozenList, (list(self),)


def _freeze(value):
    """A read-only copy of JSON-shaped ``value``: mappings and lists
    become read-only dicts and lists, tuples stay tuples of frozen
    items, and scalars pass through.  Frozen containers are returned as
    they are: only :func:`_freeze` builds them, always deeply."""
    kind = type(value)
    if kind in _FINAL_TYPES:
        return value
    if kind is dict or isinstance(value, Mapping):
        return _FrozenDict({key: _freeze(item) for key, item in value.items()})
    if isinstance(value, list):
        return _FrozenList([_freeze(item) for item in value])
    if kind is tuple:
        return tuple(_freeze(item) for item in value)
    return value


_FINAL_TYPES = frozenset(
    (str, int, float, bool, type(None), _FrozenDict, _FrozenList)
)


class _LazyRaw:
    """The :attr:`RunResult.raw` slot.  A result built without a live
    object (``raw=None``: parsed from disk or JSON) rebuilds one from its
    payload with :func:`rehydrate_raw` on first access and keeps it."""

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the dataclass default
        state = result.__dict__
        if "_raw" not in state:
            state["_raw"] = rehydrate_raw(result.verb, result.payload)
        return state["_raw"]

    def __set__(self, result, raw):
        if raw is not None:
            result.__dict__["_raw"] = raw


@dataclass(frozen=True)
class RunResult:
    """One session verb's outcome plus its reproduction recipe.

    Immutable: the JSON-shaped fields are frozen once, at construction
    (``__post_init__``), so the store, the session and the service hand
    one result to every caller instead of copying it.  Assigning an
    attribute or editing a mapping raises ``TypeError``; derive a
    variant with :func:`dataclasses.replace`, which is O(1) because
    frozen fields are not copied again.
    """

    verb: str
    """Which verb produced this: sweep / worst_case / grid / simulate."""
    spec: Mapping
    """Declarative :class:`~repro.api.RunSpec` snapshot (live objects
    degrade to reprs -- see :meth:`RunSpec.describe`)."""
    profile: Mapping
    """The :class:`~repro.api.RuntimeProfile` that ran it."""
    backend: str
    """The *resolved* kernel name (``"auto"`` pinned to what ran)."""
    timings: Mapping = field(default_factory=dict)
    """Wall-clock seconds per phase (``build``, ``run``, ``total``...)."""
    payload: Mapping = field(default_factory=dict)
    """The numbers, JSON-shaped (verb-specific layout)."""
    raw: Any = field(default=None, repr=False, compare=False)
    """The live result object(s); not serialized.  Rebuilt from
    ``payload`` on first access when the result was parsed."""
    store_meta: Any = field(default=None, repr=False, compare=False)
    """Store provenance when a :class:`~repro.store.ResultStore` was in
    the loop: ``{"hit": bool, "fingerprint": ..., "lookup_seconds": ...}``.
    Not serialized (runtime provenance, not experiment identity)."""
    _shared: dict = field(default_factory=dict, repr=False, compare=False)
    """Derived data shared with every :func:`dataclasses.replace` view
    of this result: the cached :meth:`compact_json`."""

    def __post_init__(self) -> None:
        for name in _FROZEN_FIELDS:
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    # ------------------------------------------------------------------
    def clone(self) -> "RunResult":
        """This result without its per-call ``store_meta``.

        O(1): the result is immutable, so there is nothing to detach."""
        if self.store_meta is None:
            return self
        return dataclasses.replace(self, store_meta=None)

    def compact_json(self) -> str:
        """``json.dumps(self.to_dict(), separators=(",", ":"))``, encoded
        once and shared with every view :func:`dataclasses.replace`
        makes of this result that keeps its serialized fields (the
        service splices it into response frames)."""
        serialized = self.to_dict()
        cached = self._shared.get("json")
        if cached is not None and all(
            map(operator.is_, cached[0], serialized.values())
        ):
            return cached[1]
        text = _COMPACT.encode(serialized)
        self._shared["json"] = (tuple(serialized.values()), text)
        return text

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _SERIALIZED_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        unknown = set(data).difference(_SERIALIZED_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown RunResult field(s): {sorted(unknown)}"
            )
        return cls(**data)

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, payload) -> "RunResult":
        """Rebuild from a JSON string or a path to a saved result."""
        if isinstance(payload, (Path,)) or (
            isinstance(payload, str) and "\n" not in payload
            and payload.lstrip()[:1] not in ("{", "[")
        ):
            payload = Path(payload).read_text(encoding="utf-8")
        return cls.from_dict(json.loads(payload))

    def save(self, directory="results", name: str | None = None) -> Path:
        """Write the result as JSON under ``directory`` (default the
        repository's ``results/``) and return the path.

        The default filename embeds a content digest of the serialized
        result, so the same result always lands at the same path (a
        re-run overwrites its own file, never a different result's).
        """
        import hashlib

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        payload = self.to_json()
        if name is None:
            digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
            name = f"RUN_{self.verb}_{digest}.json"
        path = directory / name
        path.write_text(payload + "\n", encoding="utf-8")
        return path


RunResult.raw = _LazyRaw()
# Frozen dataclasses raise ``FrozenInstanceError`` (an AttributeError);
# a result raises TypeError for every mutation, like its mappings.
RunResult.__setattr__ = RunResult.__delattr__ = _read_only

_SERIALIZED_FIELDS = tuple(f.name for f in fields(RunResult) if f.compare)
_FROZEN_FIELDS = ("spec", "profile", "timings", "payload", "store_meta")
