"""Dateline routing for the k-ary 2-cube (torus).

Section 4.2 names "dateline routing in torus networks" as the canonical
example of *resource classes*: the cyclic channel dependency of each
ring is broken by splitting its VCs into a pre-dateline and a
post-dateline class, with packets moving to the post class when they
traverse the ring's wraparound link and never back.

With X-then-Y dimension-order routing this yields four totally ordered
resource classes -- X-pre (0), X-post (1), Y-pre (2), Y-post (3) -- and
an upper-triangular transition matrix: a packet's class only ever
increases (crossing a dateline, or switching from the X ring to the Y
ring).  :meth:`TorusDatelineRouting.partition` builds the matching
:class:`~repro.core.vc_partition.VCPartition`, giving sparse VC
allocation plenty of structure to exploit (only 10 of 16 class
transitions are legal per message class).

Port convention matches the mesh: 0 = terminal, 1 = +x, 2 = -x,
3 = +y, 4 = -y; every port is wired (wraparound links close the rings).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .dor import PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_TERMINAL, PORT_WEST

if TYPE_CHECKING:  # pragma: no cover
    from ...core.vc_partition import VCPartition
    from ..flit import Packet
    from ..network import Network
    from ..router import Router
    from ..traffic import Terminal

__all__ = ["TorusDatelineRouting", "X_PRE", "X_POST", "Y_PRE", "Y_POST"]

X_PRE, X_POST, Y_PRE, Y_POST = 0, 1, 2, 3


class TorusDatelineRouting:
    """Shortest-direction X-then-Y DOR with dateline VC classes."""

    NUM_RESOURCE_CLASSES = 4

    def __init__(self, k: int) -> None:
        if k < 3:
            raise ValueError("torus dateline routing needs k >= 3")
        self.k = k

    @staticmethod
    def partition(vcs_per_class: int = 1) -> VCPartition:
        """Request/reply message classes x 4 dateline resource classes.

        Transitions are the (reflexive) total order X-pre -> X-post ->
        Y-pre -> Y-post: a packet may skip forward (e.g. straight from
        X-pre to Y-post when its first Y hop crosses the Y dateline) but
        never move back.
        """
        from ...core.vc_partition import VCPartition

        transitions = (
            (True, True, True, True),
            (False, True, True, True),
            (False, False, True, True),
            (False, False, False, True),
        )
        return VCPartition(2, 4, vcs_per_class, transitions)

    # ------------------------------------------------------------------
    def _direction(self, src: int, dst: int):
        """Shortest ring direction: (step, crosses_wrap)."""
        k = self.k
        fwd = (dst - src) % k
        bwd = (src - dst) % k
        if fwd <= bwd:
            return +1, src + fwd >= k  # walking +1 passes the k-1 -> 0 seam
        return -1, src - bwd < 0  # walking -1 passes the 0 -> k-1 seam

    def _next_hop(self, router_id: int, dest_router: int):
        """(port, dimension, crosses_dateline_this_hop) or ejection."""
        k = self.k
        x, y = router_id % k, router_id // k
        dx, dy = dest_router % k, dest_router // k
        if x != dx:
            step, _ = self._direction(x, dx)
            port = PORT_EAST if step > 0 else PORT_WEST
            crosses = (x == k - 1 and step > 0) or (x == 0 and step < 0)
            return port, "x", crosses
        if y != dy:
            step, _ = self._direction(y, dy)
            port = PORT_NORTH if step > 0 else PORT_SOUTH
            crosses = (y == k - 1 and step > 0) or (y == 0 and step < 0)
            return port, "y", crosses
        return PORT_TERMINAL, None, False

    def _next_class(self, current: int, dim, crosses: bool) -> int:
        if dim is None:
            return current  # ejection keeps the class
        if dim == "x":
            needed = X_POST if crosses else X_PRE
        else:
            needed = Y_POST if crosses else Y_PRE
        # Classes only ever increase (the deadlock-freedom invariant).
        return max(current, needed)

    # ------------------------------------------------------------------
    def prepare(self, network: "Network", terminal: "Terminal", packet: "Packet") -> None:
        # The injection VC class is the one the first network channel
        # will need.
        src_router = terminal.router.id
        _, dim, crosses = self._next_hop(src_router, packet.dest)
        packet.resource_class = self._next_class(X_PRE, dim, crosses)

    def route(self, network: "Network", router: "Router", packet: "Packet") -> int:
        port, dim, crosses = self._next_hop(router.id, packet.dest)
        packet.resource_class = self._next_class(
            packet.resource_class, dim, crosses
        )
        return port

    def hops(self, src_router: int, dest_router: int) -> int:
        k = self.k
        dx = abs(src_router % k - dest_router % k)
        dy = abs(src_router // k - dest_router // k)
        return min(dx, k - dx) + min(dy, k - dy)
