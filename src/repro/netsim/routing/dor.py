"""Dimension-order routing for the k-ary 2-mesh.

X-first DOR: correct the column, then the row, then eject.  Determinism
makes it compatible with lookahead routing (the upstream router can
always pre-compute the next hop, Section 3.2), and the X-then-Y order
breaks routing-deadlock cycles so a single resource class suffices
(R = 1 in the paper's mesh configurations).

Port convention (see :mod:`repro.netsim.topology.mesh`):
0 = terminal, 1 = +x (east), 2 = -x (west), 3 = +y (north), 4 = -y (south).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..flit import Packet
    from ..network import Network
    from ..router import Router
    from ..traffic import Terminal

__all__ = ["DORMeshRouting", "PORT_TERMINAL", "PORT_EAST", "PORT_WEST", "PORT_NORTH", "PORT_SOUTH"]

PORT_TERMINAL = 0
PORT_EAST = 1
PORT_WEST = 2
PORT_NORTH = 3
PORT_SOUTH = 4


class DORMeshRouting:
    """Deterministic X-then-Y routing on a ``k x k`` mesh."""

    def __init__(self, k: int) -> None:
        self.k = k

    def prepare(self, network: "Network", terminal: "Terminal", packet: "Packet") -> None:
        # Single resource class; nothing to decide at the source.
        packet.resource_class = 0

    def route(self, network: "Network", router: "Router", packet: "Packet") -> int:
        # One terminal per router: terminal id == router id.
        return self.dor_port(router.id, packet.dest)

    def dor_port(self, router_id: int, dest_router: int) -> int:
        """X-first output port at ``router_id`` toward ``dest_router``."""
        k = self.k
        x, y = router_id % k, router_id // k
        dx, dy = dest_router % k, dest_router // k
        if dx > x:
            return PORT_EAST
        if dx < x:
            return PORT_WEST
        if dy > y:
            return PORT_NORTH
        if dy < y:
            return PORT_SOUTH
        return PORT_TERMINAL

    def hops(self, src_router: int, dest_router: int) -> int:
        """Minimal hop count between two routers (for stats)."""
        k = self.k
        return abs(src_router % k - dest_router % k) + abs(
            src_router // k - dest_router // k
        )
