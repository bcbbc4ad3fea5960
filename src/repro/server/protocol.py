"""Length-prefixed JSON framing for the Cascade server.

One frame = a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON (one object per frame).  The format is transport
agnostic — the server speaks it over both TCP and unix-domain sockets —
and deliberately trivial to implement from any language.

Client → server frames (``type`` field):

* ``eval``    — ``{"type": "eval", "id": N, "src": <verilog>}``
* ``command`` — ``{"type": "command", "id": N, "line": ":stats"}``
* ``server-stats`` — ``{"type": "server-stats", "id": N}``
* ``metrics`` — ``{"type": "metrics", "id": N}`` — this session's
  merged metrics-registry snapshot (DESIGN.md §4.7)
* ``trace``   — ``{"type": "trace", "id": N, "mode": "on"|"off"|
  "status"|"events", "limit": M}`` — control/read the process-wide
  tracer (``events`` returns up to ``limit`` recent trace events)
* ``bye``     — ``{"type": "bye"}``

Server → client frames:

* ``welcome`` — first frame on connect: session id + server limits
* ``output``  — streamed program output (``$display`` etc.)
* ``result``  — completion of the request with the same ``id``
* ``goodbye`` — the session is over (``reason``: client/idle/
  server-full/shutdown/protocol-error/internal-error/connection-lost)
  — always the last frame; a ``connection-lost`` session's peer reset
  the connection, so that goodbye is queued but never delivered
* ``error``   — a malformed request that did not kill the session

Oversized frames are rejected: a length prefix above
:data:`MAX_FRAME_BYTES` raises :class:`FrameError` without reading the
body, so a broken (or hostile) peer cannot make the server buffer
arbitrary data.  A clean EOF between frames returns ``None``; EOF in
the middle of a frame raises.
"""

from __future__ import annotations

import json
import struct
from typing import Optional

__all__ = ["FrameError", "MAX_FRAME_BYTES", "recv_frame", "send_frame"]

#: Refuse frames above this many payload bytes (4 MiB default).  Large
#: enough for any plausible source chunk, small enough to bound what a
#: single client can force the server to hold.
MAX_FRAME_BYTES = 4 * 1024 * 1024

_HEADER = struct.Struct("!I")


class FrameError(Exception):
    """The byte stream is not a valid frame sequence."""


def send_frame(sock, obj: dict) -> int:
    """Serialise ``obj`` and write one frame; returns bytes sent."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    data = _HEADER.pack(len(payload)) + payload
    sock.sendall(data)
    return len(data)


def _recv_exactly(sock, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, riding out partial reads.

    Returns ``None`` on immediate EOF (nothing read at all); raises
    :class:`FrameError` on EOF mid-read.
    """
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(count - got)
        if not chunk:
            if got == 0:
                return None
            raise FrameError(
                f"connection closed mid-frame ({got}/{count} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock, max_bytes: int = MAX_FRAME_BYTES
               ) -> Optional[dict]:
    """Read one frame; ``None`` on clean EOF between frames.

    Raises :class:`FrameError` for an oversized length prefix, a
    truncated frame, undecodable UTF-8/JSON, or a payload that is not
    a JSON object.
    """
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameError(
            f"declared frame length {length} exceeds the "
            f"{max_bytes}-byte limit")
    payload = _recv_exactly(sock, length) if length else b""
    if payload is None:
        raise FrameError("connection closed before frame payload")
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError("frame payload must be a JSON object")
    return obj
