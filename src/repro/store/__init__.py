"""Content-addressed result store: fingerprint -> :class:`RunResult`.

The paper's tables and figures are one large parameter lattice; this
package converts repeat queries over that lattice from O(sweep) to
O(lookup).  A **fingerprint** addresses one ``(verb, RunSpec)``
experiment; the **store** persists the corresponding
:class:`~repro.api.RunResult` durably and serves it back.

Fingerprint contract
--------------------
``run_fingerprint(verb, spec)`` is sha256 over the compact key-sorted
JSON of ``{"format": 1, "verb": ..., "spec": ...}`` where the spec
payload is ``RunSpec.to_dict()`` with the declarative ``pair``
description replaced by its schema-canonical form
(:func:`repro.protocols.canonical_pair`).  Invariants:

* :class:`~repro.api.RuntimeProfile` fields (``backend``, ``jobs``,
  ``mp_context``, ``store``) never enter the hash, because none of them
  reaches a result: kernels and job counts are bit-identical per the
  kernel-equivalence gates, and nothing a profile sets feeds the
  budgeted ladder's tier decisions (it prices with the constant
  ``REFERENCE_WEIGHTS``).  So one entry serves every runtime.
* JSON round-trips of the same spec hash identically (tuples normalize
  to lists before hashing).
* Pair descriptions hash by constructor schema with defaults filled
  in, not by import path or call-site spelling.
* Specs holding live objects raise :class:`~repro.api.SpecError`; the
  session treats such specs as unstorable and computes directly.

On-disk layout (default root ``results/store/``)
------------------------------------------------
::

    <root>/objects/<fp[:2]>/<fp>.json   # envelope: format, fingerprint,
                                        #   saved_unix, result (RunResult.to_dict)
    <root>/quarantine/<fp>.json         # corrupt entries, moved aside

Writes are write-then-``os.replace`` (atomic on POSIX), so concurrent
writers and crash-interrupted writes can never tear an entry; a corrupt
or mismatched entry loads as a *miss* and is quarantined, never raised.
Reads refresh the entry's mtime, so :meth:`ResultStore.gc`'s TTL/LRU
eviction tracks last use.

Concurrency and copy semantics
------------------------------
One :class:`ResultStore` instance may be shared by concurrent sessions
-- threads in one process (the parallel
:class:`~repro.campaign.CampaignRunner`'s worker sessions) and
unrelated processes over one root directory:

* ``get`` returns a **private copy on every call**: memory-LRU hits
  clone the stored snapshot (``raw`` rehydrated from the cloned
  payload), disk hits are freshly parsed.  Mutating a returned result
  -- its ``payload``, the per-call ``store_meta`` the session attaches
  -- never reaches another caller, the LRU, or the on-disk entry.
* ``put`` remembers a **detached snapshot**, never the caller's live
  :class:`~repro.api.RunResult`; the caller keeps exclusive ownership
  of what it passed in.
* The in-process LRU and the ``stats`` counters are lock-protected, so
  mixed get/put traffic from many threads cannot tear them and the LRU
  stays bounded.
* Concurrent ``put`` under one fingerprint is **last-writer-wins**,
  which is safe by construction: the key is content-addressed, so
  every writer carries the same numbers and either ``os.replace``
  order leaves a consistent entry (only runtime provenance such as
  timings may differ).
"""

from .fingerprint import (
    canonical_run_payload,
    FINGERPRINT_FORMAT,
    run_fingerprint,
)
from .store import DEFAULT_STORE_ROOT, ResultStore

__all__ = [
    "DEFAULT_STORE_ROOT",
    "FINGERPRINT_FORMAT",
    "ResultStore",
    "canonical_run_payload",
    "run_fingerprint",
]
