"""UGAL routing for the 2-D flattened butterfly (Section 3.2).

UGAL [Singh 2005] chooses per packet, at the source, between the
minimal path and a Valiant-style non-minimal path through a random
intermediate router, comparing locally observable congestion scaled by
hop count: route minimally iff

    q_min * H_min <= q_nonmin * H_nonmin + threshold

where ``q`` is the occupancy of the candidate first-hop output port at
the source router (the credit-based local estimate, UGAL-L) and ``H``
the path hop count.

Two resource classes enforce deadlock freedom (Section 4.2): packets in
the non-minimal phase (class 0) may transition to the minimal phase
(class 1) at their intermediate router but never back -- exactly the
VC transition structure of Figure 4.

Port convention (see :mod:`repro.netsim.topology.fbfly`): ports
``0..conc-1`` are terminals, the next ``cols-1`` ports are row links in
ascending column order, the last ``rows-1`` ports are column links in
ascending row order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..flit import Packet
    from ..network import Network
    from ..router import Router
    from ..traffic import Terminal

__all__ = ["UGALRouting"]

PHASE_NONMINIMAL = 0
PHASE_MINIMAL = 1


class UGALRouting:
    """UGAL-L on a rows x cols flattened butterfly with concentration."""

    def __init__(
        self,
        rows: int = 4,
        cols: int = 4,
        concentration: int = 4,
        threshold: int = 0,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.concentration = concentration
        self.threshold = threshold
        # Hop tables, indexed [router][target router]: the minimal
        # next-hop output port (-1 where the packet has arrived and
        # ejects at its terminal's port) and the minimal hop count.
        n = rows * cols
        self._hop_port = [
            [self._minimal_port(a, b) for b in range(n)] for a in range(n)
        ]
        self._hop_count = [
            [(a % cols != b % cols) + (a // cols != b // cols) for b in range(n)]
            for a in range(n)
        ]

    # -- helpers ---------------------------------------------------------
    def dest_router(self, terminal_id: int) -> int:
        return terminal_id // self.concentration

    def _coords(self, router_id: int):
        return router_id // self.cols, router_id % self.cols

    def hops(self, src_router: int, dst_router: int) -> int:
        return self._hop_count[src_router][dst_router]

    def row_port(self, router_id: int, dest_col: int) -> int:
        """Output port of the row link toward ``dest_col``."""
        _, c = self._coords(router_id)
        if dest_col == c:
            raise ValueError("no row link to own column")
        others = [x for x in range(self.cols) if x != c]
        return self.concentration + others.index(dest_col)

    def col_port(self, router_id: int, dest_row: int) -> int:
        """Output port of the column link toward ``dest_row``."""
        r, _ = self._coords(router_id)
        if dest_row == r:
            raise ValueError("no column link to own row")
        others = [x for x in range(self.rows) if x != r]
        return self.concentration + (self.cols - 1) + others.index(dest_row)

    def _minimal_port(self, router_id: int, target_router: int) -> int:
        """Row-first minimal next hop, or -1 at the target itself."""
        r1, c1 = self._coords(router_id)
        r2, c2 = self._coords(target_router)
        if c1 != c2:
            return self.row_port(router_id, c2)
        if r1 != r2:
            return self.col_port(router_id, r2)
        return -1

    def first_hop_port(self, router_id: int, target_router: int, dest_terminal: int) -> int:
        """Minimal next hop from ``router_id`` toward ``target_router``."""
        port = self._hop_port[router_id][target_router]
        return port if port >= 0 else dest_terminal % self.concentration

    # -- routing hooks ----------------------------------------------------
    def prepare(self, network: "Network", terminal: "Terminal", packet: "Packet") -> None:
        src_router = terminal.router
        src = src_router.id
        dst = self.dest_router(packet.dest)
        if src == dst:
            packet.resource_class = PHASE_MINIMAL
            packet.intermediate = None
            return

        inter = int(terminal.rng.integers(self.rows * self.cols))
        h_min = self.hops(src, dst)
        h_nonmin = self.hops(src, inter) + self.hops(inter, dst)
        if inter == src or inter == dst or h_nonmin <= h_min:
            # Degenerate intermediate: the non-minimal path is no longer
            # than minimal, so take the minimal route.
            packet.resource_class = PHASE_MINIMAL
            packet.intermediate = None
            return

        q_min = src_router.output_queue_depth(
            self.first_hop_port(src, dst, packet.dest)
        )
        q_nonmin = src_router.output_queue_depth(
            self.first_hop_port(src, inter, packet.dest)
        )
        if q_min * h_min <= q_nonmin * h_nonmin + self.threshold:
            packet.resource_class = PHASE_MINIMAL
            packet.intermediate = None
        else:
            packet.resource_class = PHASE_NONMINIMAL
            packet.intermediate = inter

    def route(self, network: "Network", router: "Router", packet: "Packet") -> int:
        if (
            packet.resource_class == PHASE_NONMINIMAL
            and router.id == packet.intermediate
        ):
            # Phase transition: the packet now routes minimally and may
            # only acquire minimal-phase VCs from here on.
            packet.resource_class = PHASE_MINIMAL
        if packet.resource_class == PHASE_NONMINIMAL:
            target = packet.intermediate
        else:
            target = self.dest_router(packet.dest)
        return self.first_hop_port(router.id, target, packet.dest)
