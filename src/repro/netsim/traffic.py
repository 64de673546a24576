"""Network terminals and the request-reply traffic model (Section 3.2).

Each terminal injects *request* packets according to a geometric
process with configurable arrival rate.  When a request's tail flit is
ejected at its destination, the destination terminal generates the
corresponding reply in the next cycle; replies take priority over the
injection of new requests.  Read requests and write replies are one
flit; write requests and read replies are five.

The terminal also acts as the upstream end of the injection channel:
it tracks per-VC credits for the router's injection-port buffers,
assigns each outgoing packet an injection VC of the appropriate message
class, and is an infinite sink on the ejection side (credits are
returned as soon as flits arrive).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from .flit import Flit, Packet, PacketType
from .patterns import uniform_random_dest

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.observer import SimObserver
    from .network import Network
    from .rng import PCG64Stream
    from .router import Router

__all__ = ["Terminal", "uniform_random_dest", "permutation_dest"]


def permutation_dest(permutation: List[int]) -> Callable:
    """Fixed-permutation traffic pattern (e.g. transpose, bit-reverse)."""

    def pick(rng: PCG64Stream, src: int, num_terminals: int) -> int:
        return permutation[src]

    return pick


class Terminal:
    """One network terminal (source + sink)."""

    def __init__(
        self,
        terminal_id: int,
        router: "Router",
        router_port: int,
        link_latency: int,
        packet_rate: float,
        rng: PCG64Stream,
        read_fraction: float = 0.5,
        dest_fn: Callable = uniform_random_dest,
        num_terminals: int = 64,
    ) -> None:
        self.id = terminal_id
        self.router = router
        self.router_port = router_port
        self.link_latency = link_latency
        self.packet_rate = packet_rate
        self.read_fraction = read_fraction
        self.rng = rng
        # Bound method for the per-cycle geometric draw (saves two
        # attribute loads per terminal per cycle on the hot path).
        self._rand = rng.random
        self.dest_fn = dest_fn
        self.num_terminals = num_terminals

        V = router.num_vcs
        self.credits = [router.buffer_depth] * V
        self.request_queue: Deque[Packet] = deque()
        self.reply_queue: Deque[Packet] = deque()
        # Packet currently being serialized onto the injection channel.
        self._flits: List[Flit] = []
        self._vc = -1

        # Statistics.
        self.injected_flits = 0
        self.ejected_flits = 0
        self.generated_packets = 0
        self.unroutable_packets = 0

        # Optional repro.obs instrumentation (None = zero overhead).
        self.observer: Optional["SimObserver"] = None
        # Optional fault-aware routing predicate wired in by
        # ``Network.attach_fault_state``: ``routable_fn(src, dest)`` is
        # False when permanent faults have partitioned the pair, in
        # which case the offered packet is dropped (and counted) at
        # injection instead of stranding in the fabric.  None is the
        # fault-free fast path.
        self.routable_fn: Optional[Callable[[int, int], bool]] = None

    # ------------------------------------------------------------------
    def receive_credit(self, vc: int) -> None:
        self.credits[vc] += 1

    def receive_flit(self, network: "Network", vc: int, flit: Flit, now: int) -> None:
        """Ejection: sink the flit, return the credit, spawn replies.

        ``vc`` is the VC the flit occupied at the router's ejection port
        (whose credit is returned).
        """
        self.ejected_flits += 1
        # Infinite sink: the buffer slot is freed immediately; the credit
        # travels back to the router's ejection port.
        network.schedule_credit(
            now + 1 + self.link_latency, "router", self.router, self.router_port, vc
        )
        if flit.is_tail:
            pkt = flit.packet
            pkt.arrival_time = now
            network.record_delivery(pkt, now)
            if self.observer is not None:
                self.observer.packet_ejected(self.id, pkt, now)
            if pkt.ptype.is_request:
                network.record_birth(now + 1)
                if self.routable_fn is not None and not self.routable_fn(
                    self.id, pkt.src
                ):
                    # The reverse direction is partitioned: the reply
                    # can never be delivered, so drop it at the source.
                    self.unroutable_packets += 1
                else:
                    reply = Packet(
                        src=self.id,
                        dest=pkt.src,
                        ptype=pkt.ptype.reply_type,
                        birth_time=now + 1,
                    )
                    self.reply_queue.append(reply)

    # ------------------------------------------------------------------
    def step(self, network: "Network", now: int) -> None:
        # 1. Generate new request traffic (geometric process).
        if self.packet_rate > 0 and self._rand() < self.packet_rate:
            ptype = (
                PacketType.READ_REQUEST
                if self._rand() < self.read_fraction
                else PacketType.WRITE_REQUEST
            )
            dest = self.dest_fn(self.rng, self.id, self.num_terminals)
            network.record_birth(now)
            if self.routable_fn is not None and not self.routable_fn(
                self.id, dest
            ):
                # Partitioned pair: drop the offered packet at injection.
                # The check runs *after* every RNG draw so the draw
                # stream (and therefore all later traffic) matches what
                # a non-dropping run would generate.
                self.unroutable_packets += 1
            else:
                self.request_queue.append(
                    Packet(src=self.id, dest=dest, ptype=ptype, birth_time=now)
                )
                self.generated_packets += 1

        # 2. Start a new packet if idle (replies take priority).  The
        # queue check is hoisted: _next_packet on two empty queues is a
        # no-op, and most terminal-cycles are idle.
        if not self._flits and (self.reply_queue or self.request_queue):
            pkt = self._next_packet(network, now)
            if pkt is not None:
                vc = self._choose_vc(network, pkt)
                if vc is None:
                    # No credits/VC available: put it back at the front.
                    if pkt.ptype.is_request:
                        self.request_queue.appendleft(pkt)
                    else:
                        self.reply_queue.appendleft(pkt)
                else:
                    self._flits = pkt.make_flits()
                    self._vc = vc

        # 3. Serialize one flit per cycle onto the injection channel.
        if self._flits and self.credits[self._vc] > 0:
            flit = self._flits.pop(0)
            if flit.is_head:
                flit.packet.inject_time = now
                if self.observer is not None:
                    self.observer.packet_injected(self.id, flit.packet, now)
            self.credits[self._vc] -= 1
            self.injected_flits += 1
            network.schedule_flit(
                now + 1 + self.link_latency,
                "router",
                self.router,
                self.router_port,
                self._vc,
                flit,
            )
            if flit.is_tail:
                self._flits = []
                self._vc = -1

    # ------------------------------------------------------------------
    def _next_packet(self, network: "Network", now: int) -> Optional[Packet]:
        pkt: Optional[Packet] = None
        if self.reply_queue and self.reply_queue[0].birth_time <= now:
            pkt = self.reply_queue.popleft()
        elif self.request_queue and self.request_queue[0].birth_time <= now:
            pkt = self.request_queue.popleft()
        if pkt is not None:
            # Route-selection decisions are fixed at injection (UGAL
            # picks minimal vs. Valiant and the intermediate router here).
            network.routing.prepare(network, self, pkt)
        return pkt

    def _choose_vc(self, network: "Network", pkt: Packet) -> Optional[int]:
        """Pick an injection VC of the packet's (message, resource) class.

        Chooses the candidate with the most credits; requires space for
        at least one flit.  Avoids interleaving packets because flits of
        one packet are sent back-to-back before the next is started.
        """
        part = self.router.partition
        best = None
        best_credits = 0
        for u in part.class_vcs_tuple(pkt.message_class, pkt.resource_class):
            if self.credits[u] > best_credits:
                best = u
                best_credits = self.credits[u]
        return best

    @property
    def backlog(self) -> int:
        """Packets waiting at the source (saturation indicator)."""
        return len(self.request_queue) + len(self.reply_queue)
