"""JSON-lines wire framing for the sweep service.

One frame = one compact JSON object terminated by ``\\n`` (no embedded
newlines; ``json.dumps`` never emits them).  Requests and responses are
symmetric frames; see :mod:`repro.service` for the verb catalogue and
envelope contract.  The framing is deliberately minimal -- stdlib-only,
debuggable with ``nc`` -- and guarded: an over-long or non-JSON line is
a :class:`ProtocolError`, answered with an error envelope rather than
a torn connection where possible.
"""

from __future__ import annotations

import asyncio
import json

from ..api.result import RunResult
from .jobs import ServiceError

__all__ = [
    "encode_frame",
    "error_envelope",
    "MAX_FRAME_BYTES",
    "ok_envelope",
    "ProtocolError",
    "read_frame",
    "write_frame",
]

#: Upper bound on one frame (a stored grid result with hundreds of
#: scenarios stays far below this; anything bigger is a framing bug).
MAX_FRAME_BYTES = 8 * 1024 * 1024


class ProtocolError(ServiceError):
    """A malformed, over-long, or non-JSON-object frame."""


#: ``json.dumps(..., separators=(",", ":"))`` without building an
#: encoder per call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def encode_frame(payload: dict) -> bytes:
    """Compact JSON + newline terminator.

    A :class:`~repro.api.RunResult` under ``"result"`` is spliced in as
    its cached :meth:`~repro.api.RunResult.compact_json`: the bytes equal
    encoding the frame with ``result.to_dict()`` in its place, but a
    stored result is encoded once, not on every hit.
    """
    result = payload.get("result")
    if not isinstance(result, RunResult):
        return _COMPACT.encode(payload).encode() + b"\n"
    members = ",".join(
        _COMPACT.encode(key) + ":"
        + (result.compact_json() if value is result else _COMPACT.encode(value))
        for key, value in payload.items()
    )
    return ("{" + members + "}\n").encode()


def ok_envelope(**fields) -> dict:
    return {"ok": True, **fields}


def error_envelope(error: BaseException | str, kind: str | None = None) -> dict:
    """The uniform error shape: ``{"ok": false, "error": {"type", "message"}}``."""
    if isinstance(error, BaseException):
        kind = kind or type(error).__name__
        message = str(error)
    else:
        kind = kind or "ServiceError"
        message = str(error)
    return {"ok": False, "error": {"type": kind, "message": message}}


async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> dict | None:
    """The next frame as a dict, or ``None`` at clean EOF."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-frame") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(
            f"frame exceeds the stream limit ({exc.consumed} bytes buffered)"
        ) from exc
    if len(line) > max_bytes:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the {max_bytes} byte cap"
        )
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


async def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()
