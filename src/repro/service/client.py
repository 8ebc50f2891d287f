"""Service clients: in-process (:class:`ServiceClient`) and TCP
(:class:`RemoteClient`), one method surface.

The in-process client wraps a live :class:`~repro.service.SweepService`
and returns live :class:`~repro.api.RunResult` objects (one immutable
result shared by every waiter -- the single-flight fan-out contract);
the remote client speaks the
JSON-lines protocol and returns the decoded envelopes, with error
envelopes raised as :class:`RemoteError`.  Both submit campaigns as
job batches: every expanded entry becomes one ``submit``, so a
campaign's repeated fingerprints dedupe against the store and against
other clients' in-flight work.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator

from ..api.result import RunResult
from ..api.spec import RunSpec
from .jobs import Job, ServiceError
from .protocol import MAX_FRAME_BYTES, ProtocolError, read_frame, write_frame
from .service import SweepService

__all__ = ["RemoteClient", "RemoteError", "ServiceClient"]


class ServiceClient:
    """Async in-process facade over a running :class:`SweepService`."""

    def __init__(self, service: SweepService) -> None:
        self.service = service

    async def submit(
        self, verb: str, spec, *, priority: int = 0, wait: bool = True
    ) -> RunResult | Job:
        """Submit one run; with ``wait`` (default) return its
        :class:`~repro.api.RunResult` (shared, immutable), else the tracking
        :class:`Job`."""
        job = self.service.submit(verb, spec, priority=priority)
        if not wait:
            return job
        return await job.wait()

    async def status(self, job_id: str) -> dict:
        return self.service.job(job_id).snapshot()

    async def result(self, job_id: str) -> RunResult:
        return await self.service.job(job_id).wait()

    async def stream(self, job_id: str) -> AsyncIterator[dict]:
        """Yield the job's events (history first, then live) until the
        terminal ``done``/``failed`` event."""
        job = self.service.job(job_id)
        queue = job.subscribe()
        try:
            while True:
                event = await queue.get()
                if event is None:
                    return
                yield event
        finally:
            job.unsubscribe(queue)

    async def stats(self) -> dict:
        return self.service.stats()

    async def submit_campaign(
        self, campaign, *, priority: int = 0
    ) -> list[tuple[str, Job]]:
        """Submit every expanded campaign entry as one job; returns
        ``(label, job)`` pairs in lattice order (await ``job.wait()``
        for the results -- coalesced/hit entries resolve instantly)."""
        return [
            (entry.label, self.service.submit(
                entry.verb, entry.spec, priority=priority
            ))
            for entry in campaign.expand()
        ]


class RemoteError(ServiceError):
    """An error envelope from the server; ``payload`` is the decoded
    ``{"type", "message"}`` mapping."""

    def __init__(self, payload: dict):
        self.payload = payload or {}
        super().__init__(
            f"{self.payload.get('type', 'ServiceError')}: "
            f"{self.payload.get('message', 'unknown error')}"
        )


class RemoteClient:
    """One TCP connection to a :class:`~repro.service.SweepServer`.

    Requests run one at a time per connection (the wire protocol is
    strictly request/response on a line); open one client per
    concurrent caller, exactly like a database connection.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "RemoteClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_FRAME_BYTES
        )
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "RemoteClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def request(self, payload: dict) -> dict:
        """One request frame -> the one response frame; error envelopes
        raise :class:`RemoteError`."""
        await write_frame(self._writer, payload)
        response = await read_frame(self._reader)
        if response is None:
            raise ProtocolError("server closed the connection mid-request")
        if not response.get("ok", False):
            raise RemoteError(response.get("error"))
        return response

    @staticmethod
    def _spec_payload(spec) -> dict:
        if isinstance(spec, RunSpec):
            # Strict serialization: live-object specs cannot cross the
            # wire (SpecError here beats a garbled frame there).
            return spec.to_dict()
        return dict(spec)

    async def submit(
        self, verb: str, spec, *, priority: int = 0, wait: bool = True
    ) -> dict:
        """Submit one run.  With ``wait`` the response carries
        ``result`` (the serialized :class:`~repro.api.RunResult`) and
        ``store_meta``; without it, just the admitted job snapshot."""
        return await self.request({
            "op": "submit",
            "verb": verb,
            "spec": self._spec_payload(spec),
            "priority": priority,
            "wait": wait,
        })

    async def status(self, job_id: str) -> dict:
        return (await self.request({"op": "status", "id": job_id}))["job"]

    async def result(self, job_id: str) -> dict:
        return await self.request({"op": "result", "id": job_id})

    async def stats(self) -> dict:
        return (await self.request({"op": "stats"}))["stats"]

    async def stream(self, job_id: str) -> AsyncIterator[dict]:
        """Yield event frames for ``job_id`` until the terminal summary
        frame (which is yielded last, carrying ``done``/``job``)."""
        await write_frame(self._writer, {"op": "stream", "id": job_id})
        while True:
            frame = await read_frame(self._reader)
            if frame is None:
                raise ProtocolError("server closed the stream early")
            if not frame.get("ok", False):
                raise RemoteError(frame.get("error"))
            yield frame
            if frame.get("done"):
                return

    async def submit_campaign(
        self, campaign, *, priority: int = 0, wait: bool = True
    ) -> list[tuple[str, dict]]:
        """Submit every expanded entry; returns ``(label, response)``
        pairs in lattice order."""
        responses = []
        for entry in campaign.expand():
            responses.append((
                entry.label,
                await self.submit(
                    entry.verb,
                    entry.spec,
                    priority=priority,
                    wait=wait,
                ),
            ))
        return responses
