"""The sweep service: an async serving daemon with single-flight dedup
over the content-addressed result store.

Promotes :class:`~repro.api.Session` from a library facade to a
serving layer (ROADMAP direction 1): a long-lived
:class:`SweepService` accepts ``(verb, RunSpec)`` jobs, answers store
hits in O(lookup), and coalesces concurrent identical misses onto one
computation.  :class:`SweepServer` exposes it over TCP;
:class:`ServiceClient` / :class:`RemoteClient` are the in-process and
wire clients; ``repro-nd serve`` / ``repro-nd submit`` are the CLI.

Quickstart::

    import asyncio
    from repro.api import RuntimeProfile
    from repro.service import ServiceClient, SweepService

    async def main():
        async with SweepService(
            RuntimeProfile(jobs=4),
            store="results/store", workers=2,
        ) as service:
            client = ServiceClient(service)
            result = await client.submit("sweep", {
                "pair": {"kind": "symmetric", "eta": 0.01},
                "samples": 256,
            })
            print(result.payload["worst_one_way"])

    asyncio.run(main())

Budgeted queries keep tail latency flat under load: a ``worst_case``
spec with ``budget_ms`` set answers with the best bound the adaptive
fidelity ladder can prove in that budget (``fidelity: "auto"`` falls
back to exact when the exact tier is affordable), and the service
derives each attempt's timeout from the budget so a budgeted job can
never ride the global ``job_timeout``::

    result = await client.submit("worst_case", {
        "pair": {"kind": "zoo", "protocol": "Disco",
                 "params": {"prime1": 3, "prime2": 5}},
        "fidelity": "auto",
        "budget_ms": 100.0,
    })
    provenance = result.payload["provenance"]
    print(provenance["fidelity"], provenance["bound_interval"])
    # e.g. "exact" [2184, 2184] -- or a widening interval under
    # tighter budgets, with the priced tier decisions in
    # provenance["tiers"].

Wire-protocol contract
======================

**Framing.**  JSON lines over TCP: one frame is one JSON *object*
encoded compactly and terminated by a single ``\\n``.  Requests and
responses use the same framing; frames above
:data:`~repro.service.protocol.MAX_FRAME_BYTES` (8 MiB) are rejected.
A connection handles one request at a time, strictly in order.

**Requests.**  Every request names an ``op``:

========  ============================================  =================
op        request fields                                response
========  ============================================  =================
submit    ``verb`` (sweep / worst_case / grid /         with ``wait``
          simulate), ``spec`` (RunSpec mapping),        (default true): a
          optional ``priority`` (int, higher first),    result envelope;
          optional ``wait``                             else the admitted
                                                        job snapshot
status    ``id`` (job id)                               ``{"ok", "job"}``
result    ``id``                                        result envelope
                                                        (blocks until
                                                        terminal)
stream    ``id``                                        one ``{"ok",
                                                        "event"}`` frame
                                                        per job event
                                                        (history first,
                                                        then live), then
                                                        ``{"ok", "done",
                                                        "job"}``
stats     --                                            ``{"ok",
                                                        "stats"}``:
                                                        service counters
                                                        + store stats
========  ============================================  =================

A **result envelope** is ``{"ok": true, "job": <snapshot>, "result":
<RunResult.to_dict()>, "store_meta": {"hit", "fingerprint",
"lookup_seconds"}}``.

**Sharing contract.**  Results are immutable
(:class:`~repro.api.RunResult`: every mutation raises ``TypeError``),
so a store hit is ``fingerprint -> one shared snapshot -> bytes``:
admission attaches the per-call ``store_meta`` with an O(1)
``dataclasses.replace`` view of the store's snapshot, coalesced
waiters share the computing job's result, and the ``result`` member of
a response frame is the snapshot's compact JSON, encoded once and
spliced in -- byte-identical to encoding ``to_dict()`` afresh.

**Error envelopes.**  Every failure is ``{"ok": false, "error":
{"type": <exception class name>, "message": <text>}}`` -- e.g.
``SpecError`` (invalid spec / unknown verb), ``ServiceOverload`` (the
bounded queue is full: back off and retry), ``JobFailed`` (the job
exhausted its retries; the envelope also carries ``job``),
``ServiceError`` (unknown job id), ``ProtocolError`` (malformed
frame; the server answers once, then closes the connection, since the
line discipline is lost).  Errors are per-request: the connection --
and the service -- keep serving.

**At-most-once execution per fingerprint.**  Admission computes the
store fingerprint of ``(verb, spec)`` (the
:mod:`repro.store` contract: ``RuntimeProfile`` never enters the
digest) once per distinct spec text per daemon; repeats reuse it from
the service's identity memo.  A stored fingerprint is answered from
the store without executing; an in-flight fingerprint coalesces onto
the existing job
(one compute, whose immutable result every waiter shares); only
a cold fingerprint enqueues a new computation, whose result is written
back exactly once.  Across N concurrent submissions of one cold spec
the compute therefore runs exactly once -- the single-flight property
the load bench asserts as a hard gate.  Specs holding live objects
have no fingerprint and always compute (and cannot cross the wire at
all).  Crash-retried jobs re-execute their *incomplete* work only:
grid jobs resume from their per-scenario checkpoint, and a timed-out
attempt's late store write is harmless (last-writer-wins under a
content-addressed key, both writers carrying the same numbers).
"""

from .client import RemoteClient, RemoteError, ServiceClient
from .jobs import (
    Job,
    JobFailed,
    ServiceClosed,
    ServiceError,
    ServiceOverload,
)
from .protocol import MAX_FRAME_BYTES, ProtocolError
from .server import SweepServer
from .service import SweepService

__all__ = [
    "Job",
    "JobFailed",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "RemoteClient",
    "RemoteError",
    "ServiceClient",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverload",
    "SweepServer",
    "SweepService",
]
