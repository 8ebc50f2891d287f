"""Declarative pair-family registry: constructor schemas for specs.

:class:`repro.api.RunSpec` names protocol pairs declaratively
(``{"kind": ..., ...}``) so a spec can live in a JSON file next to its
results.  This module is the registry those descriptions resolve
through:

* :func:`register_pair_schema` adds a new pair family --
  ``repro.api.spec.build_pair`` consults the registry for any kind it
  does not handle inline, so downstream code can introduce families
  without touching ``repro.api.spec``.
* :func:`canonical_pair` normalizes a declarative description by
  filling in schema defaults, so content-addressed fingerprints
  (:mod:`repro.store`) derive from the *schema* -- ``{"kind":
  "symmetric"}`` and ``{"kind": "symmetric", "omega": 32, "eta": 0.01,
  "alpha": 1.0}`` describe the same experiment and must fingerprint
  identically.  Canonicalization is best-effort and never raises: a
  description it cannot interpret passes through unchanged (the
  fingerprint is then over the literal form, still deterministic).

Zoo descriptions canonicalize through ``inspect.signature`` of the
named protocol class (read once per class object), so fingerprints
track constructor *parameters* (including defaults), not import paths
or call-site spelling.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = [
    "PairSchema",
    "canonical_pair",
    "build_registered_pair",
    "pair_kinds",
    "pair_schema",
    "register_pair_schema",
]


@dataclass(frozen=True)
class PairSchema:
    """One registered pair family.

    ``build`` maps the (already kind-stripped) parameter mapping to
    ``(protocol_e, protocol_f, horizon_base)``; ``defaults`` are the
    constructor defaults canonicalization fills in; ``canonicalize``
    optionally replaces the default fill-in logic entirely (the zoo
    family's signature inspection).
    """

    kind: str
    build: Callable[[dict], tuple]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    canonicalize: Callable[[dict], dict] | None = None
    description: str = ""

    def canonical_params(self, params: dict) -> dict:
        if self.canonicalize is not None:
            return self.canonicalize(params)
        merged = dict(self.defaults)
        merged.update(params)
        return merged


_SCHEMAS: dict[str, PairSchema] = {}


def register_pair_schema(schema: PairSchema) -> None:
    """Register (or replace) a declarative pair family under its kind."""
    _SCHEMAS[schema.kind] = schema


def pair_schema(kind: str) -> PairSchema | None:
    """The registered schema for ``kind`` (``None`` when unknown)."""
    return _SCHEMAS.get(kind)


def pair_kinds() -> list[str]:
    """Registered pair kinds, sorted."""
    return sorted(_SCHEMAS)


def canonical_pair(pair: Any) -> Any:
    """Schema-canonical form of a declarative pair description.

    Fills registered defaults so equivalent descriptions produce one
    canonical mapping; non-mapping or unrecognized inputs pass through
    unchanged.  Never raises -- fingerprinting must not fail on a
    description the builder itself would reject later with a clear
    error.
    """
    if not isinstance(pair, Mapping):
        return pair
    payload = dict(pair)
    schema = _SCHEMAS.get(payload.get("kind"))
    if schema is None:
        return payload
    kind = payload.pop("kind")
    try:
        params = schema.canonical_params(payload)
    except Exception:
        return dict(pair)
    return {"kind": kind, **params}


def build_registered_pair(pair: Mapping) -> tuple:
    """Build ``(protocol_e, protocol_f, horizon_base)`` via the registry.

    Raises ``KeyError`` for an unregistered kind -- callers
    (``build_pair``) translate that into their own error type.
    """
    payload = dict(pair)
    kind = payload.pop("kind", None)
    schema = _SCHEMAS[kind]
    return schema.build(payload)


# ----------------------------------------------------------------------
# Built-in families
# ----------------------------------------------------------------------


#: ``inspect.signature`` per factory *object* (it dominated the
#: fingerprint's cost); a factory replaced under the same name is a new key.
_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _zoo_canonicalize(params: dict) -> dict:
    """Fill a zoo description's params from the constructor signature."""
    from .. import protocols as protocol_zoo

    name = params.get("protocol")
    given = dict(params.get("params") or {})
    factory = getattr(protocol_zoo, str(name), None)
    if factory is None:
        return dict(params)
    merged: dict[str, Any] = {}
    for parameter in _signature(factory).parameters.values():
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        if parameter.name in given:
            merged[parameter.name] = given.pop(parameter.name)
        elif parameter.default is not inspect.Parameter.empty:
            merged[parameter.name] = parameter.default
    merged.update(given)  # unknown extras kept; the builder rejects them
    return {"protocol": str(name), "params": merged}


def _build_via_spec(kind: str) -> Callable[[dict], tuple]:
    def build(params: dict) -> tuple:
        from ..api.spec import build_pair

        return build_pair({"kind": kind, **params})

    return build


def _build_unidirectional(params: dict) -> tuple:
    from ..core.optimal import synthesize_unidirectional
    from ..core.sequences import NDProtocol

    design = synthesize_unidirectional(
        params.pop("omega", 32),
        params.pop("window"),
        params.pop("k"),
        params.pop("stride", None),
        params.pop("redundancy", 1),
    )
    if params:
        raise ValueError(
            f"unknown pair parameter(s) for 'unidirectional': {sorted(params)}"
        )
    advertiser = NDProtocol(
        beacons=design.beacons, reception=None, name="advertiser"
    )
    scanner = NDProtocol(
        beacons=None, reception=design.reception, name="scanner"
    )
    return advertiser, scanner, design.worst_case_latency


register_pair_schema(PairSchema(
    kind="symmetric",
    build=_build_via_spec("symmetric"),
    defaults={"omega": 32, "eta": 0.01, "alpha": 1.0},
    description="Both devices run the bound-attaining symmetric protocol.",
))
register_pair_schema(PairSchema(
    kind="symmetric-split",
    build=_build_via_spec("symmetric-split"),
    defaults={"omega": 32, "eta": 0.01, "alpha": 1.0},
    description="Symmetric synthesis split into advertiser + scanner.",
))
register_pair_schema(PairSchema(
    kind="asymmetric",
    build=_build_via_spec("asymmetric"),
    defaults={"omega": 32, "eta_e": 0.1, "eta_f": 0.01, "alpha": 1.0},
    description="The Theorem-5.7 gateway/peripheral pair.",
))
register_pair_schema(PairSchema(
    kind="zoo",
    build=_build_via_spec("zoo"),
    canonicalize=_zoo_canonicalize,
    description="Any protocol class exported by repro.protocols.",
))
register_pair_schema(PairSchema(
    kind="unidirectional",
    build=_build_unidirectional,
    defaults={"omega": 32, "stride": None, "redundancy": 1},
    description=(
        "A synthesized one-way advertiser/scanner design "
        "(synthesize_unidirectional)."
    ),
))
