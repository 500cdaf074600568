"""Length-prefixed JSON framing for the cluster wire protocol.

Every message between a :mod:`~repro.cluster.coordinator` and a
:mod:`~repro.cluster.worker` is one frame::

    +----------------+---------------------------+
    | length (u32 BE)| UTF-8 JSON object payload |
    +----------------+---------------------------+

The payload is always a JSON object with a ``"type"`` key. Frames are
bounded by :data:`MAX_FRAME_BYTES` so a corrupt peer cannot make the
other side allocate unbounded memory, and only JSON ever crosses the
wire — no pickling, so neither side can be made to execute anything but
the scan the messages describe.

Message vocabulary (see the coordinator/worker modules for the flow):

========================  =======================================================
coordinator → worker
========================  =======================================================
``welcome``               scan config (wire form), ``shard_count``, heartbeat
                          interval, protocol version, ``failover`` standby
                          address list
``assign``                one shard descriptor: ``seed``, ``scale``, ``shard``
                          (index), ``shard_count``
``heartbeat``             park ping, sent every heartbeat interval while the
                          worker waits for work — bounds the worker's recv
                          timeout so a dead coordinator host is detectable
``drain``                 no more work — finish up and disconnect
========================  =======================================================

========================  =======================================================
worker → coordinator
========================  =======================================================
``hello``                 worker name + protocol version
``ready``                 request the next shard assignment
``heartbeat``             liveness signal, sent every interval (also mid-shard)
``result``                one finished shard: ``shard`` + serialized ShardResult
``shard-error``           shard failed on this worker: ``shard`` + ``error``
``bye``                   clean disconnect acknowledgement
========================  =======================================================
"""

from __future__ import annotations

import json
import socket
import struct

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ConnectionClosed",
    "ProtocolError",
    "recv_message",
    "send_message",
]

#: bumped on any incompatible change to the message vocabulary.
#: v2: coordinator→worker ``heartbeat`` park pings (a v1 worker would
#: treat them as a protocol error while parked).
#: v3: versioned wire payloads (``"v"`` on config and shard-result
#: frames, strict field validation) and an optional tagger warm-start
#: hint on ``assign``.
#: v4: full shard-context warm-start hints (tagger + pre-screen state)
#: on ``assign``, plus the optional ``profile`` request flag on
#: ``assign`` and the per-shard ``profile`` payload on ``result``.
#: v5: hot-standby failover — ``welcome`` carries a ``failover`` address
#: list that workers merge into their connect list, and workers accept a
#: multi-address connect list, rotating through it in the reconnect loop
#: (a v4 worker pinned to one address would strand itself when the
#: primary coordinator dies).
#: The v3 and v4 warm-start hints are retired: coordinators no longer
#: send them and workers ignore them. Both were optional fields read
#: with ``.get``, so dropping them needs no version bump.
PROTOCOL_VERSION = 5

#: upper bound on one frame; full-scale shard results stay far below this.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct("!I")


class ProtocolError(RuntimeError):
    """The peer sent something that is not a valid protocol frame."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (cleanly or mid-frame)."""


def send_message(sock: socket.socket, message: dict) -> None:
    """Serialize ``message`` and write it as one length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the protocol bound")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ConnectionClosed`."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                "peer closed the connection"
                + (" mid-frame" if remaining != count or chunks else "")
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict:
    """Read one frame and decode its JSON payload.

    Raises :class:`ConnectionClosed` on EOF and :class:`ProtocolError` on
    malformed frames (oversized length, bad JSON, non-object payload).
    """
    (length,) = _HEADER.unpack(_recv_exactly(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the protocol bound")
    payload = _recv_exactly(sock, length)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame payload is not a typed JSON object")
    return message
