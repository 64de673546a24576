"""Wire format of the sweep service: line-delimited JSON messages.

One message per line, UTF-8 JSON with a ``type`` field.  The format is
deliberately primitive -- newline framing, no binary, no pipelining
tricks -- so a worker can be debugged with ``nc`` and the whole
protocol fits in one page of ``docs/DISTRIBUTED.md``.

Handshake (both roles)::

    -> {"type": "hello", "role": "client"|"worker",
        "version": 1, "salt": "sim-rev-3"}
    <- {"type": "welcome", "version": 1, "salt": "sim-rev-3"}

The salt is the simulator-revision cache salt: a worker or client built
from a different simulator revision would silently mix incompatible
numbers into the shared cache, so the server refuses the handshake with
an ``error`` message instead.

Client session::

    -> {"type": "submit", "points": [{"index": 0, "config": {...}}, ...]}
    <- {"type": "point", "index": 0, "key": "...", "cached": true,
        "payload": {...}}                    (one per point, any order)
    <- {"type": "failed", "index": 3, "key": "...", "kind": "crash",
        "error": "...", "message": "...", "detail": null, "attempts": 2}
    <- {"type": "sweep_done", "completed": 7, "failed": 1}

Worker session::

    -> {"type": "lease"}
    <- {"type": "work", "key": "...", "config": {...}}   (may park)
    -> {"type": "result", "key": "...", "payload": {...}}
    -> {"type": "fail", "key": "...", "error": "ValueError",
        "message": "...", "detail": null}

``config`` dicts are :meth:`~repro.netsim.simulator.SimulationConfig.
to_dict` output; ``payload`` dicts are :meth:`~repro.netsim.simulator.
SimulationResult.to_payload` output.  The server recomputes every cache
key from the config it received -- client-supplied keys are never
trusted.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional, Tuple

from ..netsim.config import SIMULATOR_REV

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "encode_message",
    "decode_message",
    "hello_message",
    "check_welcome",
    "parse_address",
    "MessageSocket",
]

PROTOCOL_VERSION = 1

# A submit message carries every pending config of a sweep on one line;
# at ~300 bytes per config dict this caps sweeps around 100k points.
# The asyncio server must raise its StreamReader limit to this value --
# the 64 KiB default would reject submits past ~200 points.
MAX_MESSAGE_BYTES = 32 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Malformed, unexpected or version-incompatible message."""


def encode_message(msg: Dict[str, Any]) -> bytes:
    return json.dumps(msg, separators=(",", ":")).encode() + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    try:
        msg = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparsable message: {exc}") from None
    if not isinstance(msg, dict) or not isinstance(msg.get("type"), str):
        raise ProtocolError("message is not an object with a 'type' field")
    return msg


def hello_message(role: str) -> Dict[str, Any]:
    return {
        "type": "hello",
        "role": role,
        "version": PROTOCOL_VERSION,
        "salt": f"sim-rev-{SIMULATOR_REV}",
    }


def check_welcome(msg: Optional[Dict[str, Any]]) -> None:
    """Validate the server's handshake reply (raises on refusal)."""
    if msg is None:
        raise ProtocolError("server closed the connection during handshake")
    if msg.get("type") == "error":
        raise ProtocolError(f"server refused: {msg.get('message')}")
    if msg.get("type") != "welcome":
        raise ProtocolError(f"expected welcome, got {msg.get('type')!r}")
    if msg.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: server speaks "
            f"{msg.get('version')!r}, this build speaks {PROTOCOL_VERSION}"
        )


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"`` (host may be empty for localhost)."""
    host, sep, port_text = address.rpartition(":")
    if not sep:
        raise ValueError(f"address must be HOST:PORT, got {address!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad port in address {address!r}") from None
    return host or "127.0.0.1", port


class MessageSocket:
    """Blocking line-delimited JSON channel (worker/client side).

    The server side is asyncio; workers and clients are deliberately
    plain synchronous sockets -- they do exactly one thing at a time
    (lease, compute, report) and gain nothing from an event loop.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")

    @classmethod
    def connect(
        cls, host: str, port: int, timeout: Optional[float] = None
    ) -> "MessageSocket":
        sock = socket.create_connection((host, port), timeout=timeout)
        # The lease loop blocks indefinitely waiting for work; only the
        # connect itself gets a timeout.
        sock.settimeout(None)
        # A worker writes ``result`` then ``lease`` before it reads:
        # with Nagle on, the second small write waits out the server's
        # delayed ACK (~40 ms per point).  asyncio sets this server-side.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)

    def send(self, msg: Dict[str, Any]) -> None:
        self._sock.sendall(encode_message(msg))

    def recv(self) -> Optional[Dict[str, Any]]:
        """Next message, or ``None`` when the peer closed the stream."""
        line = self._reader.readline(MAX_MESSAGE_BYTES)
        if not line:
            return None
        if not line.endswith(b"\n"):
            raise ProtocolError(
                "truncated or oversized message from peer "
                f"({len(line)} bytes without a newline)"
            )
        return decode_message(line)

    def close(self) -> None:
        for closer in (self._reader.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass
