"""Network container: routers, terminals, links and the event loop.

Events (flit deliveries, credit returns) are scheduled at absolute
cycles in a dict-of-lists calendar queue -- cheap because every event
horizon is bounded by the largest link latency (+1 cycle of switch
traversal).

Per cycle:

1. deliver this cycle's flits and credits (buffer writes),
2. terminals generate/serialize traffic,
3. every router runs its allocation step (VA + speculative SA) and
   schedules departures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .flit import Flit, Packet
from .router import Router
from .traffic import Terminal

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.observer import SimObserver
    from .topology import TopologyDescription

__all__ = ["Network"]


class Network:
    """A simulated NoC: routers + terminals + in-flight events."""

    def __init__(self, routing) -> None:
        self.routing = routing
        # The TopologyDescription this network was assembled from (None
        # for hand-wired networks); fault-aware routing reads its
        # neighbor lookup.
        self.description: Optional["TopologyDescription"] = None
        self.routers: List[Router] = []
        self.terminals: List[Terminal] = []
        self.time = 0
        self._flit_events: Dict[int, List[Tuple[str, object, int, int, Flit]]] = {}
        self._credit_events: Dict[int, List[Tuple[str, object, int, int]]] = {}
        # Delivery hook set by the simulator to collect statistics.
        self.on_delivery: Optional[Callable[[Packet, int], None]] = None
        # Birth hook (fault runs only): called with the birth cycle of
        # every *offered* packet -- including packets dropped as
        # unroutable -- so the simulator can compute the delivered
        # fraction over the measurement window.
        self.on_birth: Optional[Callable[[int], None]] = None
        # Optional repro.obs instrumentation (None = zero overhead).
        self.observer: Optional["SimObserver"] = None
        # Optional repro.faults injection (None = fault-free fast path).
        self.fault_state = None
        # Optional repro.obs phase profiler (None = unprofiled fast path;
        # same null-object idiom as observer/fault_state).
        self.profiler = None
        # True only when the attached fault state schedules credit
        # faults; keeps the per-credit delivery loop on a single local
        # truthiness check otherwise.
        self._credit_faults_armed = False

    def attach_observer(self, observer: Optional["SimObserver"]) -> None:
        """Wire one observer into the network, every router and every
        terminal (pass ``None`` to detach)."""
        self.observer = observer
        for router in self.routers:
            # Rebinds the step (observed cycles run the fast kernel) and
            # drops any stall latch: an observer expects per-cycle stall
            # events, so the generic path must run again.
            router.attach_observer(observer)
        for terminal in self.terminals:
            terminal.observer = observer

    def attach_profiler(self, profiler) -> None:
        """Wire a :class:`repro.obs.profiling.PhaseProfiler` into the
        network and every router (pass ``None`` to detach).

        Compiled routers rebind to the matching (profiled/unprofiled)
        generated variant here, once, rather than testing ``profiler``
        every cycle.
        """
        self.profiler = profiler
        for router in self.routers:
            # Also drops any stall latch: the profiled network loop
            # marks every allocation segment, so it must run again.
            router.attach_profiler(profiler)

    def attach_fault_state(self, fault_state) -> None:
        """Wire a :class:`repro.faults.FaultState` into the network and
        every router (pass ``None`` to detach).

        Fault-aware routing objects (:mod:`repro.netsim.routing.ft`)
        additionally get the fault state bound so they can precompute
        detour tables, and their ``routable`` predicate is wired into
        every terminal so packets whose (src, dest) pair the faults have
        partitioned are dropped and counted at injection time.
        """
        self.fault_state = fault_state
        self._credit_faults_armed = (
            fault_state is not None and fault_state.has_credit_faults
        )
        for router in self.routers:
            router.attach_fault_state(fault_state)
        bind = getattr(self.routing, "bind_fault_state", None)
        if bind is not None:
            bind(fault_state, self)
            routable = self.routing.routable if fault_state is not None else None
            for terminal in self.terminals:
                terminal.routable_fn = routable

    def close(self) -> None:
        """Drop every reference that makes this network a cycle, so that
        reference counting frees it when the caller lets go.

        A wired network is one reference cycle: routers point at their
        neighbours and terminals through the link tables, at themselves
        through the bound ``_alloc_step``, terminals point back at their
        router, and the delivery hooks close over the caller's frame.
        Whoever calls ``build_network`` / ``assemble`` closes the result
        (:func:`~repro.netsim.simulator.run_simulation` does); the
        statistics must be read first.  Idempotent, and safe on a
        hand-wired or half-wired network.  A closed network cannot be
        stepped: :meth:`step` raises.
        """
        for router in self.routers:
            del router._alloc_step
            router.observer = router.fault_state = router.profiler = None
            unwired = [None] * router.num_ports
            router.out_links[:] = router.upstream[:] = unwired
            router._out_pre[:] = router._up_pre[:] = unwired
        for terminal in self.terminals:
            del terminal.router
            terminal.observer = terminal.routable_fn = None
        self.routers = []
        self.terminals = []
        # None, not {}: stepping a closed network fails instead of idling.
        self._flit_events = self._credit_events = None  # type: ignore[assignment]
        self.on_delivery = self.on_birth = self.routing = None
        self.observer = self.fault_state = self.profiler = None

    # ------------------------------------------------------------------
    # event scheduling (called by routers/terminals)
    # ------------------------------------------------------------------
    def schedule_flit(
        self, when: int, kind: str, obj: object, port: int, vc: int, flit: Flit
    ) -> None:
        """Deliver ``flit`` into (obj, port, vc) at cycle ``when``."""
        # get()-then-append instead of setdefault: avoids building a
        # throwaway empty list on every call (this runs once per flit
        # per hop).
        events = self._flit_events.get(when)
        if events is None:
            self._flit_events[when] = [(kind, obj, port, vc, flit)]
        else:
            events.append((kind, obj, port, vc, flit))

    def schedule_credit(
        self, when: int, kind: str, obj: object, port: int, vc: int
    ) -> None:
        events = self._credit_events.get(when)
        if events is None:
            self._credit_events[when] = [(kind, obj, port, vc)]
        else:
            events.append((kind, obj, port, vc))

    def record_delivery(self, packet: Packet, now: int) -> None:
        if self.on_delivery is not None:
            self.on_delivery(packet, now)

    def record_birth(self, birth_time: int) -> None:
        if self.on_birth is not None:
            self.on_birth(birth_time)

    # ------------------------------------------------------------------
    def _deliver_credits(self, now: int) -> None:
        """Hand this cycle's returning credits to their routers and
        terminals (one call per cycle, so the per-credit loops stay
        free of any per-event test)."""
        if self._credit_faults_armed:
            fs = self.fault_state
            assert fs is not None  # armed only while a fault plan is installed
            for kind, obj, port, vc in self._credit_events.pop(now, ()):
                if kind == "router":
                    event = fs.credit_event(obj.id, port, vc, now)
                    if event is not None:
                        if event == "drop":
                            fs.counters["credits_dropped"] += 1
                            continue  # the credit vanishes in transit
                        fs.counters["credits_duplicated"] += 1
                        obj.receive_credit(port, vc)
                    obj.receive_credit(port, vc)
                else:
                    obj.receive_credit(vc)
        else:
            for kind, obj, port, vc in self._credit_events.pop(now, ()):
                if kind == "router":
                    obj.receive_credit(port, vc)
                else:
                    obj.receive_credit(vc)

    def step(self) -> None:
        """Advance the network by one cycle."""
        prof = self.profiler
        if prof is not None:
            self._step_profiled(prof)
            return
        now = self.time

        for kind, obj, port, vc, flit in self._flit_events.pop(now, ()):
            if kind == "router":
                obj.receive_flit(self, port, vc, flit)
            else:  # terminal ejection
                obj.receive_flit(self, vc, flit, now)
        self._deliver_credits(now)

        for term in self.terminals:
            term.step(self, now)
        for router in self.routers:
            # allocation_step with its guards hoisted: skip empty or
            # latched-idle routers without a call (the idle latch is
            # never set by the reference kernel, so reference runs see a
            # plain busy check), and dispatch straight to the step
            # Router._bind_step selected.
            if router._busy and not router._alloc_idle:
                router._alloc_step(self, now)

        if self.observer is not None:
            self.observer.cycle_end(self, now)
        self.time = now + 1

    def _step_profiled(self, prof) -> None:
        """One cycle with phase attribution -- the same statements as
        :meth:`step` with outer-segment marks between the loop stages.

        ``prof.outer`` charges each segment its elapsed time minus any
        nested phases routers marked inside it (lookahead routing during
        delivery; routing/VC-allocation/link-traversal during the
        allocation sweep), so every second lands in exactly one bucket.
        Kept as a separate method so the unprofiled :meth:`step` pays
        only one attribute load + identity check per cycle.
        """
        now = self.time
        t0 = prof.begin()

        for kind, obj, port, vc, flit in self._flit_events.pop(now, ()):
            if kind == "router":
                obj.receive_flit(self, port, vc, flit)
            else:  # terminal ejection
                obj.receive_flit(self, vc, flit, now)
        t0 = prof.outer("delivery", t0)

        self._deliver_credits(now)
        t0 = prof.outer("event_calendar", t0)

        for term in self.terminals:
            term.step(self, now)
        t0 = prof.outer("traffic", t0)

        for router in self.routers:
            if router._busy and not router._alloc_idle:
                router._alloc_step(self, now)
        t0 = prof.outer("sw_alloc", t0)

        if self.observer is not None:
            self.observer.cycle_end(self, now)
        prof.outer("stats", t0)
        self.time = now + 1

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    # ------------------------------------------------------------------
    # aggregate statistics
    # ------------------------------------------------------------------
    @property
    def num_terminals(self) -> int:
        return len(self.terminals)

    def total_injected_flits(self) -> int:
        return sum(t.injected_flits for t in self.terminals)

    def total_ejected_flits(self) -> int:
        return sum(t.ejected_flits for t in self.terminals)

    def total_misspeculations(self) -> int:
        return sum(r.misspeculations for r in self.routers)

    def total_speculative_wins(self) -> int:
        return sum(r.speculative_wins for r in self.routers)

    def total_backlog(self) -> int:
        return sum(t.backlog for t in self.terminals)

    def total_switch_grants(self) -> int:
        return sum(r.switch_grants for r in self.routers)

    def stranded_packets(self) -> int:
        """Distinct packets with flits still inside the fabric.

        After the drain phase this is the count of packets that faults
        (or genuine deadlock) left stuck -- the ``packets_lost`` figure
        on :class:`~repro.netsim.simulator.SimulationResult`.  Source
        backlog is excluded: packets never injected are a throughput
        degradation, not a loss.
        """
        pids = set()
        for r in self.routers:
            for port in r.input_vcs:
                for ivc in port:
                    for flit in ivc.queue:
                        pids.add(flit.packet.pid)
        for events in self._flit_events.values():
            for _, _, _, _, flit in events:
                pids.add(flit.packet.pid)
        for t in self.terminals:
            for flit in t._flits:
                pids.add(flit.packet.pid)
        return len(pids)

    def channel_utilization(self) -> Dict[Tuple[int, int], float]:
        """Flits per cycle sent on each router-to-router channel.

        Keyed by ``(router id, output port)``; terminal channels are
        included.  Useful for spotting load imbalance (e.g. the UGAL
        adversarial-traffic studies).
        """
        if self.time == 0:
            return {}
        return {
            (r.id, q): r.port_flits[q] / self.time
            for r in self.routers
            for q in range(r.num_ports)
            if r.out_links[q] is not None
        }

    def in_flight_flits(self) -> int:
        """Flits buffered in routers or on links (drain check)."""
        buffered = sum(
            ivc.occupancy
            for r in self.routers
            for port in r.input_vcs
            for ivc in port
        )
        on_links = sum(len(v) for v in self._flit_events.values())
        sending = sum(len(t._flits) for t in self.terminals)
        return buffered + on_links + sending

    def in_flight_credits(self) -> int:
        """Credits still travelling upstream (drain check).

        A credit is scheduled up to ``2 + link_latency`` cycles after
        the departure that freed the buffer slot, so a network can have
        zero in-flight flits while a credit is still on the wire.  A
        drain check that asserts ``credits == buffer_depth`` must also
        wait for this to reach zero, otherwise the final ejection's
        credit return races the end of the drain window and the check
        misreads an in-transit credit as a leak.
        """
        return sum(len(v) for v in self._credit_events.values())
