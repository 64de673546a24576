"""Client side of the sweep service: the :class:`RemoteScheduler`.

``repro sweep --connect HOST:PORT`` plugs this scheduler into the
ordinary :func:`~repro.eval.runner.run_sweep` loop -- cache lookups,
checkpoints, reporters and failure policy all stay client-side and
unchanged; only the *computation* of pending points moves to the
server.  Warm results the server serves from its shared cache arrive
flagged ``cached`` and are recorded as cache hits, so two clients
sweeping overlapping design spaces pay for each point once between
them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..eval.runner import PointScheduler, SweepStats
from ..netsim.config import SimulationConfig, SimulationResult
from .protocol import (
    MessageSocket,
    ProtocolError,
    check_welcome,
    hello_message,
    parse_address,
)

__all__ = ["RemoteScheduler"]


class RemoteScheduler(PointScheduler):
    """Ship pending points to a ``repro serve`` instance.

    Retry, backoff, lease-requeue and multi-client dedup all happen
    server-side; this class only submits and streams.  A failure the
    server could not retry away surfaces through ``fail`` exactly like
    a local pool failure, so ``on_failure="raise"``/``"record"``
    behave identically for remote sweeps.
    """

    def __init__(
        self, address: str, connect_timeout: float = 30.0
    ) -> None:
        self.address = address
        self.connect_timeout = connect_timeout

    def run(
        self,
        configs: Sequence[SimulationConfig],
        pending: List[int],
        record: Callable[..., None],
        fail: Callable[..., None],
        stats: SweepStats,
    ) -> None:
        host, port = parse_address(self.address)
        sock = MessageSocket.connect(host, port, timeout=self.connect_timeout)
        try:
            sock.send(hello_message("client"))
            check_welcome(sock.recv())
            sock.send({
                "type": "submit",
                "points": [
                    {"index": i, "config": configs[i].to_dict()}
                    for i in pending
                ],
            })
            outstanding = set(pending)
            while outstanding:
                msg = sock.recv()
                if msg is None:
                    raise ProtocolError(
                        f"server {self.address} closed the connection with "
                        f"{len(outstanding)} point(s) outstanding"
                    )
                mtype = msg.get("type")
                if mtype == "point":
                    index = msg["index"]
                    outstanding.discard(index)
                    record(
                        index,
                        SimulationResult.from_payload(msg["payload"]),
                        cached=bool(msg.get("cached")),
                    )
                elif mtype == "failed":
                    index = msg["index"]
                    outstanding.discard(index)
                    # May raise SweepPointError (on_failure="raise");
                    # the finally below still closes the socket.
                    fail(
                        index,
                        msg.get("kind", "exception"),
                        msg.get("error", "RemoteFailure"),
                        msg.get("message", ""),
                        msg.get("detail"),
                        int(msg.get("attempts", 1)),
                    )
                elif mtype == "error":
                    raise ProtocolError(
                        f"server {self.address} rejected the sweep: "
                        f"{msg.get('message')}"
                    )
                elif mtype == "sweep_done":
                    break
        finally:
            sock.close()
