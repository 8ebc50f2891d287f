"""Content-addressed fingerprints for ``(verb, RunSpec)`` pairs.

The fingerprint is the store key: sha256 over the compact, key-sorted
JSON of ``{"format": 1, "verb": <verb>, "spec": <canonical spec>}``.

Two invariance guarantees define the contract:

* **Runtime invariance** -- :class:`repro.api.RuntimeProfile` never
  enters the hash.  Results are bit-identical across backend/jobs/
  mp_context by the kernel-equivalence gates, so runtime knobs must
  not split the cache.
* **Spelling invariance** -- the spec payload is ``RunSpec.to_dict()``
  (tuples normalized to lists, so JSON round-trips of the same spec
  hash identically), with the declarative ``pair`` description replaced
  by its schema-canonical form
  (:func:`repro.protocols.canonical_pair`): filled-in constructor
  defaults, so ``{"kind": "symmetric"}`` and its fully-spelled
  equivalent address the same entry, and fingerprints derive from
  constructor schemas rather than import paths.

Specs holding live objects (protocol instances, Scenario lists) have no
declarative identity and raise :class:`~repro.api.SpecError` -- callers
treat that as "not storable" and bypass the store.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

from ..api.spec import SpecError

__all__ = ["FINGERPRINT_FORMAT", "canonical_run_payload", "run_fingerprint"]

#: Bumping this invalidates every existing store entry; do so whenever
#: a semantic change makes old payloads incomparable to new ones.
FINGERPRINT_FORMAT = 1


def canonical_run_payload(verb: str, spec) -> dict:
    """The exact JSON-shaped payload the fingerprint hashes.

    Raises :class:`SpecError` when the spec cannot be serialized (live
    objects in declarative slots).
    """
    payload = spec.to_dict()
    pair = payload.get("pair")
    if isinstance(pair, Mapping) and "kind" in pair:
        from ..protocols.registry import canonical_pair

        payload["pair"] = canonical_pair(pair)
    return {"format": FINGERPRINT_FORMAT, "verb": str(verb), "spec": payload}


def run_fingerprint(verb: str, spec) -> str:
    """The sha256 hex fingerprint addressing ``(verb, spec)``."""
    payload = canonical_run_payload(verb, spec)
    try:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise SpecError(
            f"spec is not JSON-serializable and cannot be fingerprinted: {exc}"
        ) from exc
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
