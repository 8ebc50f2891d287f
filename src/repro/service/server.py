"""The TCP front end: ``asyncio.start_server`` over the JSON-lines
protocol.

Connection handling is isolated per client (SRMCA-style: an accept- or
dispatch-layer failure degrades one connection, never the service):
every request frame is answered with exactly one response frame --
except ``stream``, which answers with one frame per job event and a
terminal summary frame -- and any per-request error becomes an error
envelope on that connection while the service keeps serving everyone
else.
"""

from __future__ import annotations

import asyncio

from ..api.spec import SpecError
from .jobs import JobFailed, ServiceError
from .protocol import (
    error_envelope,
    MAX_FRAME_BYTES,
    ok_envelope,
    ProtocolError,
    read_frame,
    write_frame,
)
from .service import SweepService

__all__ = ["SweepServer"]


def _result_envelope(job, result) -> dict:
    # ``encode_frame`` splices the result's cached compact encoding.
    return ok_envelope(
        job=job.snapshot(),
        result=result,
        store_meta=result.store_meta,
    )


class SweepServer:
    """Serve a :class:`SweepService` over TCP (see :mod:`repro.service`
    for the wire contract)."""

    def __init__(
        self, service: SweepService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> "SweepServer":
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_FRAME_BYTES,
        )
        # Pin the ephemeral port the OS actually assigned (port=0).
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "SweepServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    # A garbled frame poisons the line discipline; answer
                    # once and hang up rather than misparse what follows.
                    await write_frame(writer, error_envelope(exc))
                    break
                if request is None:
                    break
                try:
                    await self._dispatch(request, writer)
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except Exception as exc:
                    # Per-request isolation: report, keep the connection.
                    await write_frame(writer, error_envelope(exc))
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        op = request.get("op")
        if op == "submit":
            await self._op_submit(request, writer)
        elif op == "status":
            job = self.service.job(_require_id(request))
            await write_frame(writer, ok_envelope(job=job.snapshot()))
        elif op == "result":
            job = self.service.job(_require_id(request))
            result = await job.wait()  # raises JobFailed into the envelope
            await write_frame(writer, _result_envelope(job, result))
        elif op == "stream":
            await self._op_stream(request, writer)
        elif op == "stats":
            await write_frame(writer, ok_envelope(stats=self.service.stats()))
        else:
            await write_frame(
                writer,
                error_envelope(
                    f"unknown op {op!r}; one of "
                    f"['result', 'stats', 'status', 'stream', 'submit']",
                    kind="ProtocolError",
                ),
            )

    async def _op_submit(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        verb = request.get("verb")
        spec = request.get("spec")
        if not isinstance(spec, dict):
            raise SpecError("submit needs a mapping 'spec' field")
        priority = request.get("priority", 0)
        if not isinstance(priority, int):
            raise SpecError("submit 'priority' must be an integer")
        job = self.service.submit(verb, spec, priority=priority)
        if not request.get("wait", True):
            await write_frame(writer, ok_envelope(job=job.snapshot()))
            return
        try:
            result = await job.wait()
        except JobFailed as exc:
            await write_frame(
                writer,
                {**error_envelope(exc), "job": exc.job.snapshot()},
            )
            return
        await write_frame(writer, _result_envelope(job, result))

    async def _op_stream(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        job = self.service.job(_require_id(request))
        queue = job.subscribe()
        try:
            while True:
                event = await queue.get()
                if event is None:
                    break
                await write_frame(writer, ok_envelope(event=event))
        finally:
            job.unsubscribe(queue)
        await write_frame(writer, ok_envelope(done=True, job=job.snapshot()))


def _require_id(request: dict) -> str:
    job_id = request.get("id")
    if not isinstance(job_id, str) or not job_id:
        raise ServiceError(f"op {request.get('op')!r} needs a string 'id'")
    return job_id
