"""Fault-aware routing with deadlock-free graceful degradation.

Two routing modes (``SimulationConfig.routing="ft_dor"``) that detour
around *permanently* faulted links learned from :class:`FaultState`:

**Mesh** (:class:`FTDORMeshRouting`) -- two resource classes:

* class 0 is plain X-first DOR (acyclic channel-dependency graph);
* class 1 is a reserved *escape* class routed up*/down* on the
  surviving link graph: a BFS spanning forest per connected component
  (rooted at the minimum-id router) orients every healthy link, a legal
  escape path takes "up" hops (toward lower ``(level, id)``) before
  "down" hops, and per-destination next-hop tables pick the minimal
  path within that discipline.

A packet stays in class 0 until its deterministic DOR path hits a
permanently faulted output port; there it transitions one-way into the
escape class and follows the table to the destination.  Deadlock
freedom composes: the class-0 CDG is acyclic (X-first DOR), the
class-1 CDG is acyclic (up*/down* imposes a total order on escape
channel acquisition), and the partition's transition matrix only
permits 0 -> 1, so the union is acyclic.  Each packet makes at most one
escape transition (``Packet.misroutes``), and within the escape class
hop distance to the destination strictly decreases, so routing is also
livelock-free.

**Flattened butterfly** (:class:`FTUGALRouting`) -- keeps UGAL's
two-phase (non-minimal -> minimal) VC discipline and *repairs* the
source routing decision: if the chosen minimal or Valiant path crosses
a permanently faulted link, the packet is re-pointed at the minimal
path when clean, else at the lowest-id intermediate router with both
legs clean.  Repaired paths have exactly the stock UGAL phase/channel
structure, so the deadlock argument is unchanged.

Both modes expose ``routable(src_terminal, dest_terminal)`` after
``bind_fault_state``; :class:`~repro.netsim.network.Network` wires it
into the terminals so offered packets whose source/destination pair is
partitioned are dropped (and counted) at injection instead of
stranding in the fabric.  Transient link faults are *not* routed
around -- the allocators mask them per-cycle and the watchdog defers
stall verdicts while they are active.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Tuple

from .dor import DORMeshRouting, PORT_TERMINAL
from .ugal import PHASE_MINIMAL, PHASE_NONMINIMAL, UGALRouting

if TYPE_CHECKING:  # pragma: no cover
    from ...core.vc_partition import VCPartition
    from ...faults.state import FaultState
    from ..flit import Packet
    from ..network import Network
    from ..router import Router
    from ..topology import TopologyDescription
    from ..traffic import Terminal

__all__ = ["FTDORMeshRouting", "FTUGALRouting", "ESCAPE_CLASS"]

#: Resource class reserved for up*/down* escape routing on the mesh.
ESCAPE_CLASS = 1


class FTDORMeshRouting(DORMeshRouting):
    """Fault-tolerant DOR on a ``k x k`` mesh with an escape class."""

    def __init__(self, k: int) -> None:
        super().__init__(k)
        self.fault_state: Optional["FaultState"] = None
        self._perm: FrozenSet[Tuple[int, int]] = frozenset()
        #: ``[phase][router][dest] -> output port`` (-1 = unreachable).
        self._esc_port: List[List[List[int]]] = []
        #: ``[phase][router][dest] -> next escape phase``.
        self._esc_phase: List[List[List[int]]] = []
        self._routable: List[List[bool]] = []
        #: (src, dest) router pairs no legal path survives for.
        self.unroutable_pairs: int = 0

    @staticmethod
    def partition(vcs_per_class: int) -> VCPartition:
        """M=2 (request/reply) x R=2 (DOR + escape), one-way 0 -> 1."""
        from ...core.vc_partition import VCPartition

        return VCPartition(
            num_message_classes=2,
            num_resource_classes=2,
            vcs_per_class=vcs_per_class,
            resource_transitions=((True, True), (False, True)),
        )

    # -- fault binding -----------------------------------------------------
    def bind_fault_state(self, fault_state: Optional["FaultState"], network: "Network") -> None:
        """Learn the permanent link faults and rebuild the detour tables."""
        if fault_state is None:
            self.fault_state = None
            self._perm = frozenset()
            self._esc_port = []
            self._esc_phase = []
            self._routable = []
            self.unroutable_pairs = 0
            return
        self.fault_state = fault_state
        self._perm = fault_state.permanent_link_faults()
        desc = network.description
        assert desc is not None, "fault-aware routing needs an assembled network"
        self._build_tables(desc)

    def _build_tables(self, desc: "TopologyDescription") -> None:
        n = desc.num_routers
        perm = self._perm
        # Undirected escape edges: both directions must be healthy.
        adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for rid in range(n):
            for port in range(desc.num_ports):
                far = desc.neighbor(rid, port)
                if far is None or (rid, port) in perm or far in perm:
                    continue
                adj[rid].append((port, far[0]))

        # BFS spanning-forest levels, one tree per surviving component,
        # rooted at the component's minimum router id.
        level = [-1] * n
        for root in range(n):
            if level[root] >= 0:
                continue
            level[root] = 0
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for _, v in adj[u]:
                    if level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)

        def is_up(u: int, v: int) -> bool:
            return (level[v], v) < (level[u], u)

        # Per-destination BFS over (router, phase) states.  Phase 0 may
        # still ascend; any down hop enters phase 1 (descend only).
        INF = n * n + 1
        esc_port = [[[-1] * n for _ in range(n)] for _ in range(2)]
        esc_phase = [[[0] * n for _ in range(n)] for _ in range(2)]
        for d in range(n):
            dist = [INF] * (2 * n)
            dist[d] = 0
            dist[n + d] = 0
            queue = deque([d, n + d])
            while queue:
                s = queue.popleft()
                ph, v = divmod(s, n)
                nd = dist[s] + 1
                for port, u in adj[v]:
                    # ``u -> v`` is the forward move; classify it.
                    if is_up(u, v):
                        # Up moves are only legal from phase 0 and land
                        # in phase 0: predecessor state is (u, 0).
                        if ph == 0 and dist[u] > nd:
                            dist[u] = nd
                            queue.append(u)
                    else:
                        # Down moves land in phase 1 from either phase.
                        if ph == 1:
                            if dist[u] > nd:
                                dist[u] = nd
                                queue.append(u)
                            if dist[n + u] > nd:
                                dist[n + u] = nd
                                queue.append(n + u)
            for ph in (0, 1):
                for u in range(n):
                    if u == d:
                        continue
                    du = dist[ph * n + u]
                    if du >= INF:
                        continue
                    best_port = -1
                    best_phase = 0
                    for port, v in sorted(adj[u]):
                        if is_up(u, v):
                            if ph != 0:
                                continue
                            nxt_ph = 0
                        else:
                            nxt_ph = 1
                        if dist[nxt_ph * n + v] == du - 1 and best_port < 0:
                            best_port = port
                            best_phase = nxt_ph
                    esc_port[ph][u][d] = best_port
                    esc_phase[ph][u][d] = best_phase
        self._esc_port = esc_port
        self._esc_phase = esc_phase

        # Exact per-pair deliverability: walk the deterministic class-0
        # DOR path; at the first permanently faulted hop the escape
        # tables must reach the destination from there.
        routable = [[True] * n for _ in range(n)]
        bad = 0
        for s in range(n):
            for d in range(n):
                if s == d:
                    continue
                ok = (d, PORT_TERMINAL) not in perm
                r = s
                while ok and r != d:
                    p = self.dor_port(r, d)
                    if (r, p) in perm:
                        ok = esc_port[0][r][d] >= 0
                        break
                    far = desc.neighbor(r, p)
                    assert far is not None  # DOR never leaves the mesh
                    r = far[0]
                routable[s][d] = ok
                if not ok:
                    bad += 1
        self._routable = routable
        self.unroutable_pairs = bad

    def routable(self, src_terminal: int, dest_terminal: int) -> bool:
        """Can a packet injected at ``src`` still reach ``dest``?"""
        if not self._routable:
            return True
        # One terminal per router: terminal id == router id.
        return self._routable[src_terminal][dest_terminal]

    # -- routing hooks -----------------------------------------------------
    def prepare(self, network: "Network", terminal: "Terminal", packet: "Packet") -> None:
        packet.resource_class = 0
        packet.escape_phase = 0

    def route(self, network: "Network", router: "Router", packet: "Packet") -> int:
        fs = self.fault_state
        if fs is None:
            return self.dor_port(router.id, packet.dest)
        rid = router.id
        dest_router = packet.dest
        if rid == dest_router:
            return PORT_TERMINAL
        if packet.resource_class == ESCAPE_CLASS:
            ph = packet.escape_phase
            port = self._esc_port[ph][rid][dest_router]
            packet.escape_phase = self._esc_phase[ph][rid][dest_router]
            return port
        port = self.dor_port(rid, dest_router)
        if (rid, port) in self._perm:
            # One-way transition into the reserved escape class.
            packet.resource_class = ESCAPE_CLASS
            packet.misroutes += 1
            fs.counters["escape_reroutes"] += 1
            port = self._esc_port[0][rid][dest_router]
            packet.escape_phase = self._esc_phase[0][rid][dest_router]
        return port


class FTUGALRouting(UGALRouting):
    """UGAL-L with deterministic path repair around permanent faults."""

    def __init__(
        self,
        rows: int = 4,
        cols: int = 4,
        concentration: int = 4,
        threshold: int = 0,
    ) -> None:
        super().__init__(rows, cols, concentration, threshold)
        self.fault_state: Optional["FaultState"] = None
        self._perm: FrozenSet[Tuple[int, int]] = frozenset()
        #: ``TopologyDescription.neighbor`` of the network whose faults
        #: are bound.
        self._neighbor: Callable[[int, int], Optional[Tuple[int, int]]]
        self._pair_ok: Dict[Tuple[int, int], bool] = {}
        self.unroutable_pairs: int = 0

    # -- fault binding -----------------------------------------------------
    def bind_fault_state(self, fault_state: Optional["FaultState"], network: "Network") -> None:
        if fault_state is None:
            self.fault_state = None
            self._perm = frozenset()
            self._pair_ok = {}
            self.unroutable_pairs = 0
            return
        self.fault_state = fault_state
        self._perm = fault_state.permanent_link_faults()
        desc = network.description
        assert desc is not None, "fault-aware routing needs an assembled network"
        self._neighbor = desc.neighbor
        n = self.rows * self.cols
        pair_ok: Dict[Tuple[int, int], bool] = {}
        bad = 0
        for s in range(n):
            for d in range(n):
                if s == d:
                    continue
                ok = self._clean_option(s, d) is not None
                pair_ok[(s, d)] = ok
                if not ok:
                    bad += 1
        self._pair_ok = pair_ok
        self.unroutable_pairs = bad

    def _leg_clean(self, src_router: int, dst_router: int) -> bool:
        """Is the minimal (row-then-column) leg free of permanent faults?"""
        perm = self._perm
        r = src_router
        while r != dst_router:
            p = self.first_hop_port(r, dst_router, 0)
            if (r, p) in perm:
                return False
            far = self._neighbor(r, p)
            assert far is not None  # minimal hops follow wired channels
            r = far[0]
        return True

    def _clean_option(self, src_router: int, dst_router: int) -> Optional[Tuple[int, Optional[int]]]:
        """First surviving path option: ``(phase, intermediate)``.

        Minimal wins when clean; otherwise the lowest-id strictly
        non-degenerate intermediate with both legs clean.
        """
        if self._leg_clean(src_router, dst_router):
            return (PHASE_MINIMAL, None)
        n = self.rows * self.cols
        for inter in range(n):
            if inter == src_router or inter == dst_router:
                continue
            if self._leg_clean(src_router, inter) and self._leg_clean(inter, dst_router):
                return (PHASE_NONMINIMAL, inter)
        return None

    def routable(self, src_terminal: int, dest_terminal: int) -> bool:
        if not self._pair_ok:
            return True
        d = self.dest_router(dest_terminal)
        if (d, dest_terminal % self.concentration) in self._perm:
            return False  # ejection port itself is dead
        s = self.dest_router(src_terminal)
        if s == d:
            return True
        return self._pair_ok[(s, d)]

    # -- routing hooks -----------------------------------------------------
    def prepare(self, network: "Network", terminal: "Terminal", packet: "Packet") -> None:
        super().prepare(network, terminal, packet)
        fs = self.fault_state
        if fs is None:
            return
        src = terminal.router.id
        dst = self.dest_router(packet.dest)
        if src == dst:
            return
        if packet.resource_class == PHASE_MINIMAL:
            if self._leg_clean(src, dst):
                return
        else:
            inter = packet.intermediate
            assert inter is not None
            if self._leg_clean(src, inter) and self._leg_clean(inter, dst):
                return
        option = self._clean_option(src, dst)
        if option is None:
            # The pair is partitioned; injection-side drops (routable)
            # keep such packets out of the fabric.
            return
        packet.misroutes += 1
        fs.counters["escape_reroutes"] += 1
        packet.resource_class, packet.intermediate = option
