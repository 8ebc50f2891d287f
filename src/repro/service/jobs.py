"""The service job model: one admitted ``(verb, RunSpec)`` unit of work.

A :class:`Job` is the single-flight unit the
:class:`~repro.service.SweepService` tracks from admission to terminal
state.  It carries the store fingerprint computed at admission (``None``
for specs holding live objects, which have no declarative identity),
the shared :class:`asyncio.Future` every coalesced waiter awaits, an
append-only event log that backs the ``stream`` verb, and -- for grid
jobs -- the per-scenario checkpoint that lets a re-queued grid resume
instead of restarting.

All mutation happens on the service's event-loop thread (compute
threads hand events over via ``call_soon_threadsafe``), so the job
needs no locking of its own.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from ..api.result import RunResult
from ..api.spec import RunSpec

__all__ = [
    "Job",
    "JobFailed",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverload",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class ServiceError(Exception):
    """Base class for every service-layer error."""


class ServiceOverload(ServiceError):
    """Admission rejected: the bounded job queue is full.

    Raised at ``submit`` time, before the job exists -- overload is a
    back-pressure signal to the caller, never a queued failure."""


class ServiceClosed(ServiceError):
    """The service stopped before this job reached a terminal state."""


class JobFailed(ServiceError):
    """A job exhausted its retries (or failed permanently).

    ``job`` is the failed :class:`Job`; ``str(exc)`` carries the final
    underlying error."""

    def __init__(self, job: "Job", message: str):
        super().__init__(message)
        self.job = job


class Job:
    """One admitted unit of work (see module docstring)."""

    __slots__ = (
        "id", "verb", "spec", "fingerprint", "priority", "state",
        "source", "attempts", "requeues", "coalesced", "error",
        "result", "future", "checkpoint", "events", "created",
        "started", "finished", "created_mono", "started_mono",
        "finished_mono", "_subscribers",
    )

    def __init__(
        self,
        job_id: str,
        verb: str,
        spec: RunSpec,
        fingerprint: str | None,
        priority: int = 0,
    ) -> None:
        self.id = job_id
        self.verb = verb
        #: Shared with every job of the same identity through the
        #: service's identity memo: read-only.
        self.spec = spec
        self.fingerprint = fingerprint
        self.priority = priority
        self.state = QUEUED
        #: How the result was produced: ``"hit"`` (admission store
        #: lookup), ``"computed"`` (this job ran the compute), or
        #: ``None`` while unresolved.  Coalesced submitters share the
        #: computing job, so they see ``"computed"`` too.
        self.source: str | None = None
        self.attempts = 0
        self.requeues = 0
        #: How many later submissions of the same fingerprint coalesced
        #: onto this in-flight job (single-flight dedup).
        self.coalesced = 0
        self.error: str | None = None
        self.result: RunResult | None = None
        self.future: asyncio.Future = _new_future()
        self.checkpoint: dict[int, Any] = {}
        self.events: list[dict] = []
        #: Wall-clock unix timestamps, for **display only** (they jump
        #: with NTP slews / clock steps).  Every duration derives from
        #: the ``*_mono`` monotonic counterparts below.
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.created_mono = time.monotonic()
        self.started_mono: float | None = None
        self.finished_mono: float | None = None
        self._subscribers: list[asyncio.Queue] = []

    # ------------------------------------------------------------------
    # Events / streaming
    # ------------------------------------------------------------------
    def emit(self, kind: str, data: dict | None = None) -> dict:
        """Append one event and fan it out to live subscribers.

        Must run on the event-loop thread (compute threads go through
        ``loop.call_soon_threadsafe``)."""
        event = {
            "seq": len(self.events),
            "job": self.id,
            "kind": kind,
            "unix": time.time(),
        }
        if data:
            event["data"] = data
        self.events.append(event)
        terminal = kind in (DONE, FAILED)
        for queue in self._subscribers:
            queue.put_nowait(event)
            if terminal:
                queue.put_nowait(None)  # end-of-stream sentinel
        if terminal:
            self._subscribers.clear()
        return event

    def subscribe(self) -> asyncio.Queue:
        """An event queue pre-loaded with the full history; a ``None``
        sentinel marks end-of-stream once the job is terminal."""
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        if self.state in (DONE, FAILED):
            queue.put_nowait(None)
        else:
            self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    async def wait(self) -> RunResult:
        """Await completion and return the job's result -- the fan-out
        side of single-flight.  Every waiter shares the one immutable
        :class:`~repro.api.RunResult`: no waiter can change what another
        sees, so nothing is copied.

        The shared future is shielded: cancelling one waiter must never
        cancel the computation every other waiter is parked on.
        """
        return await asyncio.shield(self.future)

    def queued_seconds(self) -> float | None:
        """Admission-to-compute-start latency (monotonic clock; immune
        to wall-clock steps).  ``None`` until compute starts."""
        if self.started_mono is None:
            return None
        return self.started_mono - self.created_mono

    def run_seconds(self) -> float | None:
        """Compute-start-to-terminal duration of the *last* attempt arc
        (monotonic clock).  ``None`` until terminal; ``0.0``-adjacent
        for store hits, which never start."""
        if self.finished_mono is None:
            return None
        base = (
            self.started_mono
            if self.started_mono is not None
            else self.created_mono
        )
        return self.finished_mono - base

    def snapshot(self) -> dict:
        """JSON-shaped status view (the ``status`` verb's payload).

        ``created``/``started``/``finished`` are wall-clock display
        timestamps; ``queued_seconds``/``run_seconds`` are the
        monotonic-clock durations -- never subtract the timestamps.
        """
        return {
            "id": self.id,
            "verb": self.verb,
            "fingerprint": self.fingerprint,
            "priority": self.priority,
            "state": self.state,
            "source": self.source,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "coalesced": self.coalesced,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "queued_seconds": self.queued_seconds(),
            "run_seconds": self.run_seconds(),
            "events": len(self.events),
            "checkpointed": len(self.checkpoint),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.id}, {self.verb}, state={self.state}, "
            f"attempts={self.attempts})"
        )


def _new_future() -> asyncio.Future:
    """A future bound to the running loop.

    Jobs exist only inside the service's event loop (admission may
    precede ``start()`` -- the single-flight tests do exactly that --
    but always runs under the loop that will drive the workers), so a
    missing loop is a caller bug worth naming."""
    try:
        return asyncio.get_running_loop().create_future()
    except RuntimeError as exc:  # pragma: no cover - caller bug
        raise ServiceError(
            "jobs must be submitted from within a running event loop"
        ) from exc
