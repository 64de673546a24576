"""Input-queued VC router with a two-stage pipeline (Section 3.2).

Stage 1 performs VC allocation and (speculative) switch allocation in
parallel; stage 2 is switch traversal.  Lookahead routing is modelled
by computing a flit's output port the moment it is written into an
input buffer, so no pipeline stage is charged for routing.

Pipeline timing: a flit granted the switch in cycle ``t`` traverses the
crossbar in ``t+1`` and is written into the downstream input buffer at
``t + 1 + link_latency``, becoming eligible for allocation the cycle
after that.  Credits follow the reverse path with the same latency.

Speculation (Section 5.2): a head flit waiting for an output VC bids
for the crossbar in the same cycle as VC allocation through the
speculative allocator; the speculative grant is *used* only if VC
allocation succeeded in the same cycle and the granted VC has a credit,
otherwise it counts as a misspeculation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..core.speculative import SpeculativeSwitchAllocator
from ..core.vc_allocator import VCAllocator, VCRequest
from ..core.vc_partition import VCPartition
from .buffers import InputVC
from .flit import Flit
from .kernels import DEFAULT_KERNEL, KERNELS

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.observer import SimObserver
    from .network import Network

__all__ = ["Router"]

# route function: (network, router, packet) -> output port; it may
# mutate packet.resource_class (phase transitions).
RouteFn = Callable[["Network", "Router", object], int]


class Router:
    """One NoC router instance."""

    def __init__(
        self,
        router_id: int,
        num_ports: int,
        partition: VCPartition,
        route_fn: RouteFn,
        vc_alloc_arch: str = "sep_if",
        vc_alloc_arbiter: str = "rr",
        sw_alloc_arch: str = "sep_if",
        sw_alloc_arbiter: str = "rr",
        speculation: str = "pessimistic",
        buffer_depth: int = 8,
        lookahead: bool = True,
        kernel: str = DEFAULT_KERNEL,
    ) -> None:
        self.id = router_id
        self.num_ports = num_ports
        self.partition = partition
        self.num_vcs = partition.num_vcs
        self.route_fn = route_fn
        self.buffer_depth = buffer_depth
        #: Lookahead routing (Section 3.2): heads are routed on arrival,
        #: keeping routing off the pipeline.  With ``lookahead=False``
        #: a head flit spends one cycle in a routing stage before it can
        #: request a VC (the ablation baseline).
        self.lookahead = lookahead

        P, V = num_ports, self.num_vcs
        self.input_vcs: List[List[InputVC]] = [
            [InputVC(buffer_depth) for _ in range(V)] for _ in range(P)
        ]
        # Output VC bookkeeping: holder (input p, v) or None, and the
        # credit count for the downstream buffer.
        self.output_holder: List[List[Optional[Tuple[int, int]]]] = [
            [None] * V for _ in range(P)
        ]
        self.credits: List[List[int]] = [[buffer_depth] * V for _ in range(P)]

        # out_links[q] = (neighbor kind, object, dest port, latency);
        # wired by the topology builder via connect().
        self.out_links: List[Optional[Tuple[str, object, int, int]]] = [None] * P
        # upstream[p] = (kind, object, neighbor's output port, latency)
        # for credit return.
        self.upstream: List[Optional[Tuple[str, object, int, int]]] = [None] * P
        # The same two tables pre-split for the departure path: the
        # event-tuple prefix ``(kind, object, port)`` and the landing
        # delay ``2 + latency``.  connect_output()/connect_upstream()
        # fill them in place, so a generated step made before the
        # topology is wired sees the links once they exist.
        self._out_pre: List[Optional[Tuple[str, object, int]]] = [None] * P
        self._out_del: List[Optional[int]] = [None] * P
        self._up_pre: List[Optional[Tuple[str, object, int]]] = [None] * P
        self._up_del: List[Optional[int]] = [None] * P

        self.vc_alloc = VCAllocator(
            P, partition, arch=vc_alloc_arch, arbiter=vc_alloc_arbiter, sparse=True
        )
        self.vc_alloc.check_requests = False
        self.sw_alloc = SpeculativeSwitchAllocator(
            P, V, arch=sw_alloc_arch, arbiter=sw_alloc_arbiter, scheme=speculation
        )
        self.sw_alloc.check_requests = False

        # Input VCs with at least one buffered flit, kept incrementally
        # so the per-cycle scan touches only occupied VCs.  Entries are
        # flat ``p * V + v`` indices: ints sort and hash faster than
        # tuples on the per-cycle hot path.
        self._busy: set = set()
        # Flat-index lookup tables for the fast kernel: one list index
        # replaces a divmod / double subscript per busy VC per cycle.
        self._ivc_flat: List[InputVC] = [
            ivc for port_vcs in self.input_vcs for ivc in port_vcs
        ]
        self._pv_pairs: List[Tuple[int, int]] = [
            (p, v) for p in range(P) for v in range(V)
        ]
        # Fast-kernel stall latch: True when the last allocation cycle
        # produced zero requests with no observer/faults attached.  A
        # fully stalled router stays stalled until a flit or credit
        # arrives (its own holders/credits only change through its own
        # departures), so allocation_step can skip it outright.
        self._alloc_idle = False

        # Reusable request buffers (avoid per-cycle allocation).
        self._va_requests: List[Optional[VCRequest]] = [None] * (P * V)
        self._ns_requests: List[List[Optional[int]]] = [[None] * V for _ in range(P)]
        self._sp_requests: List[List[Optional[int]]] = [[None] * V for _ in range(P)]

        # Statistics.
        self.misspeculations = 0
        self.speculative_wins = 0
        self.switch_grants = 0
        # Flits sent per output port (channel utilization accounting).
        self.port_flits = [0] * P

        # Optional instrumentation (repro.obs).  ``None`` is the
        # null-object fast path: every hook site below is one attribute
        # load + identity check when observability is disabled.
        self.observer: Optional["SimObserver"] = None
        # Optional fault injection (repro.faults), wired the same way:
        # ``None`` keeps every hook below to one identity check, so
        # fault-free runs are bit-identical to pre-fault builds.
        self.fault_state = None
        # Precomputed {output port: frozenset(stuck vcs)} for this
        # router (None when it has no stuck VCs), set by
        # attach_fault_state().
        self._stuck_by_port = None
        # Optional phase profiler (repro.obs.profiling), wired like the
        # observer: ``None`` keeps every hook to one identity check so
        # unprofiled runs are bit-identical and pay no clock reads.
        self.profiler = None

        # Last: binding the compiled step closes over the state above.
        self.kernel = kernel

    # ------------------------------------------------------------------
    @property
    def kernel(self) -> str:
        """Allocation kernel, one of :data:`repro.netsim.kernels.KERNELS`.

        ``"compiled"`` (the default, :data:`DEFAULT_KERNEL`) runs a step
        generated for this router's design point
        (:mod:`repro.netsim.codegen`); ``"fast"`` is the hand-written
        sparse step, which also serves every cycle of a compiled router
        while an observer or fault state is attached (its hook sites are
        the contract for instrumented runs); ``"reference"`` is the
        original dense implementation.  All three produce bit-identical
        simulations -- the differential harness in ``tests/perf``
        enforces this -- so ``"fast"`` and ``"reference"`` exist as
        equivalence oracles and debugging fallbacks, selectable via
        ``run_simulation(..., kernel=...)``.  Assignment rebinds the
        dispatched step (:meth:`_bind_step`).
        """
        return self._kernel

    @kernel.setter
    def kernel(self, value: str) -> None:
        if value not in KERNELS:
            raise ValueError(
                f"unknown simulation kernel {value!r}; "
                f"expected one of {', '.join(KERNELS)}"
            )
        self._kernel = value
        self._bind_step()

    def _bind_step(self) -> None:
        """Pick the step the network's cycle loop dispatches to.

        Runs when the kernel is selected and whenever an observer, fault
        state or profiler is attached or detached, so the per-cycle loop
        calls ``_alloc_step`` directly -- no wrapper frame, no string
        compare and no per-cycle instrumentation tests.  A router the
        generator cannot specialize raises
        :class:`~repro.netsim.codegen.CodegenUnsupported` here.
        """
        kernel = self._kernel
        if kernel == "fast":
            self._alloc_step = self._allocation_step_fast
        elif kernel == "reference":
            self._alloc_step = self._allocation_step_reference
        else:  # compiled
            from .codegen import kernel_factory, spec_for_router

            # Checked even when the fast step is about to serve: an
            # unsupported router must not wait for a detach to say so.
            spec = spec_for_router(self)
            if self.observer is not None or self.fault_state is not None:
                self._alloc_step = self._allocation_step_fast
            else:
                make_step = kernel_factory(spec, self.profiler is not None)
                self._alloc_step = make_step(self)
        # The stall latch is only valid for the step that set it.
        self._alloc_idle = False

    # ------------------------------------------------------------------
    def attach_observer(self, observer: Optional["SimObserver"]) -> None:
        """Wire a :class:`repro.obs.SimObserver` in (``None`` detaches)."""
        self.observer = observer
        self._bind_step()

    def attach_profiler(self, profiler) -> None:
        """Wire a :class:`repro.obs.profiling.PhaseProfiler` in (``None``
        detaches); a compiled router switches generated variant."""
        self.profiler = profiler
        self._bind_step()

    def attach_fault_state(self, fault_state) -> None:
        """Wire a :class:`repro.faults.FaultState` into this router.

        Precomputes the per-router views (stuck-VC map, allocator-level
        VC mask) so the per-cycle cost in fault mode stays proportional
        to the faults that actually touch this router.
        """
        self.fault_state = fault_state
        self._bind_step()
        if fault_state is None:
            self._stuck_by_port = None
            self.vc_alloc.fault_mask = None
            self.sw_alloc.fault_mask = None
            return
        self._stuck_by_port = fault_state.stuck_by_port(self.id)
        # Defense in depth: the allocator itself also refuses stuck VCs,
        # so a future request-generation change cannot silently grant
        # a faulted resource.
        self.vc_alloc.fault_mask = fault_state.stuck_flat(self.id, self.num_vcs)

    # ------------------------------------------------------------------
    # wiring (topology builder API)
    # ------------------------------------------------------------------
    def connect_output(
        self, port: int, kind: str, neighbor: object, dest_port: int, latency: int
    ) -> None:
        """Attach output ``port`` to a neighbor router or terminal."""
        self.out_links[port] = (kind, neighbor, dest_port, latency)
        self._out_pre[port] = (kind, neighbor, dest_port)
        self._out_del[port] = 2 + latency

    def connect_upstream(
        self, port: int, kind: str, neighbor: object, neighbor_port: int, latency: int
    ) -> None:
        """Record who feeds input ``port`` (for credit return).

        ``neighbor_port`` is the *neighbor's* output port driving this
        input, i.e. the index into its credit table.
        """
        self.upstream[port] = (kind, neighbor, neighbor_port, latency)
        self._up_pre[port] = (kind, neighbor, neighbor_port)
        self._up_del[port] = 2 + latency

    # ------------------------------------------------------------------
    # flit/credit ingress (called by the network event loop)
    # ------------------------------------------------------------------
    def receive_flit(self, network: "Network", port: int, vc: int, flit: Flit) -> None:
        """Buffer write; heads are routed on arrival (lookahead model)."""
        if flit.is_head:
            if self.lookahead:
                prof = self.profiler
                if prof is not None:
                    _t = prof.begin()
                    flit.out_port = self.route_fn(network, self, flit.packet)
                    prof.phase("routing", _t)
                else:
                    flit.out_port = self.route_fn(network, self, flit.packet)
            else:
                flit.out_port = -1  # routed in a dedicated pipeline cycle
        ivc = self.input_vcs[port][vc]
        fs = self.fault_state
        if fs is not None and len(ivc.queue) >= ivc.depth:
            # A duplicated credit let the upstream router overrun this
            # buffer.  Absorb the flit (one elastic slot) and count it
            # instead of tearing the run down -- the overflow is the
            # injected fault's observable effect, not a model bug.
            fs.counters["buffer_overflows"] += 1
            ivc.force_push(flit)
        else:
            # Inlined InputVC.push (once per flit per hop).
            queue = ivc.queue
            n = len(queue)
            if n >= ivc.depth:
                raise RuntimeError(
                    "input VC overflow: credit-based flow control violated"
                )
            queue.append(flit)
            if n >= ivc.high_water:
                ivc.high_water = n + 1
        self._busy.add(port * self.num_vcs + vc)
        self._alloc_idle = False
        if self.observer is not None:
            self.observer.flit_arrived(self.id, port, vc, flit, network.time)

    def receive_credit(self, port: int, vc: int) -> None:
        if self.credits[port][vc] >= self.buffer_depth:
            fs = self.fault_state
            if fs is not None:
                # Duplicated credit beyond buffer capacity: clamp so the
                # counter stays meaningful, but record the excess.
                fs.counters["credit_overflows_absorbed"] += 1
                return
            raise RuntimeError("credit overflow: flow-control accounting bug")
        self.credits[port][vc] += 1
        self._alloc_idle = False

    # ------------------------------------------------------------------
    # one allocation cycle
    # ------------------------------------------------------------------
    def allocation_step(self, network: "Network", now: int) -> None:
        if self._busy and not self._alloc_idle:
            self._alloc_step(network, now)

    def _allocation_step_fast(self, network: "Network", now: int) -> None:
        """Sparse allocation cycle (the profiled hot path).

        Builds the VA/SA request sets directly in the sparse form the
        allocators' ``allocate_sparse`` entry points consume, touching
        only occupied VCs.  Iterates ``_busy`` in sorted order to
        satisfy the allocators' ascending-index preconditions; every
        step below is order-independent (requests land in fixed slots,
        route calls are RNG-free and read state that only mutates after
        allocation), so the result is bit-identical to the reference
        path regardless of set iteration order.

        While building the request set the loop also detects the
        *uncontested* case -- no VC/speculative requests, at most one
        switch request per input port and per output port.  Such a
        request set is granted in full by every allocator architecture,
        so the matching machinery is skipped entirely and only the
        arbiter priority updates are committed
        (:meth:`~repro.core.speculative.SpeculativeSwitchAllocator.grant_uncontested`);
        at typical loads this covers the majority of router cycles.
        Observer runs always take the generic path so the per-cycle
        instrumentation counts stay identical.
        """
        obs = self.observer
        if obs is not None:
            wins0 = self.speculative_wins
            miss0 = self.misspeculations
        prof = self.profiler

        fs = self.fault_state
        if fs is not None:
            blocked = fs.blocked_ports(self.id, now)
            self.sw_alloc.fault_mask = blocked
            stuck = self._stuck_by_port
        else:
            blocked = None
            stuck = None

        ivc_flat = self._ivc_flat
        pv_pairs = self._pv_pairs
        credits = self.credits
        output_holder = self.output_holder
        class_vcs = self.partition.class_vcs_tuple

        va_items: List[Tuple[int, int, List[int]]] = []
        ns_items: List[Tuple[int, int, int]] = []
        sp_items: List[Tuple[int, int, int]] = []
        ns_append = ns_items.append

        uncontested = obs is None
        prev_p = -1
        out_seen = 0  # bitmask of output ports already requested
        did_route = False

        for pv in sorted(self._busy):
            ivc = ivc_flat[pv]
            u = ivc.output_vc
            if u >= 0:
                # Active: bid non-speculatively if a credit exists.
                q = ivc.output_port
                if blocked is not None and q in blocked:
                    assert fs is not None  # blocked ports imply fault state
                    fs.counters["link_blocked_requests"] += 1
                    continue  # link down: the flit waits in place
                if credits[q][u] > 0:
                    p, v = pv_pairs[pv]
                    ns_append((p, v, q))
                    if p == prev_p or (out_seen >> q) & 1:
                        uncontested = False
                    prev_p = p
                    out_seen |= 1 << q
                elif obs is not None:
                    obs.credit_stall(self.id, q, u)
            else:
                front = ivc.queue[0]
                if not front.is_head:
                    continue
                q = front.out_port
                if q < 0:
                    if prof is not None:
                        _t = prof.begin()
                        front.out_port = self.route_fn(network, self, front.packet)
                        prof.phase("routing", _t)
                    else:
                        front.out_port = self.route_fn(network, self, front.packet)
                    did_route = True
                    continue
                if blocked is not None and q in blocked:
                    assert fs is not None  # blocked ports imply fault state
                    fs.counters["link_blocked_requests"] += 1
                    continue
                pkt = front.packet
                holders = output_holder[q]
                cands = [
                    w
                    for w in class_vcs(pkt.message_class, pkt.resource_class)
                    if holders[w] is None
                ]
                if stuck is not None and cands:
                    stuck_here = stuck.get(q)
                    if stuck_here:
                        assert fs is not None  # stuck map implies fault state
                        kept = [
                            w
                            for w in cands
                            if w not in stuck_here
                            or not fs.vc_stuck(self.id, q, w, now)
                        ]
                        fs.counters["stuck_vc_masked"] += len(cands) - len(kept)
                        cands = kept
                if cands:
                    p, v = pv_pairs[pv]
                    va_items.append((pv, q, cands))
                    sp_items.append((p, v, q))
                    uncontested = False
                elif obs is not None:
                    obs.vc_starved(self.id, q)

        if not ns_items and not sp_items:
            # Zero requests and no state touched: with no faults or
            # observer attached the request set cannot change until a
            # flit or credit arrives here, so latch the stall and skip
            # the scan on subsequent cycles (receive_flit /
            # receive_credit clear the latch).
            if fs is None and obs is None and not did_route:
                self._alloc_idle = True
            return

        if uncontested:
            # Conflict-free cycle: every request wins by construction.
            self.sw_alloc.grant_uncontested(ns_items)
            depart = self._depart
            _t = prof.begin() if prof is not None else 0.0
            for p, v, _q in ns_items:
                depart(network, now, p, v)
            if prof is not None:
                prof.phase("link_traversal", _t)
            return

        va_grants: List[Optional[Tuple[int, int]]] = []
        if va_items:
            if prof is not None:
                _t = prof.begin()
                va_grants = self.vc_alloc.allocate_sparse(va_items)
                prof.phase("vc_alloc", _t)
            else:
                va_grants = self.vc_alloc.allocate_sparse(va_items)

        result = self.sw_alloc.allocate_sparse(ns_items, sp_items)

        # Commit this cycle's VC grants.
        granted_now = {}
        for (flat, _q, _cands), g in zip(va_items, va_grants):
            if g is not None:
                p, v = pv_pairs[flat]
                q, u = g
                ivc = ivc_flat[flat]
                ivc.assign_output(q, u)
                output_holder[q][u] = (p, v)
                granted_now[(p, v)] = g
                if obs is not None:
                    obs.vc_granted(self.id, p, v, ivc.queue[0], now)

        # Non-speculative switch winners depart.
        depart = self._depart
        _t = prof.begin() if prof is not None else 0.0
        for p, g in enumerate(result.nonspec):
            if g is not None:
                depart(network, now, p, g[0])

        # Speculative winners depart only if their VC allocation also
        # succeeded this cycle and the granted VC has a credit.
        for p, g in enumerate(result.spec):
            if g is None:
                continue
            v, q = g
            vag = granted_now.get((p, v))
            if vag is not None and vag[0] == q and credits[q][vag[1]] > 0:
                self.speculative_wins += 1
                depart(network, now, p, v)
            else:
                self.misspeculations += 1
        self.misspeculations += result.spec_discarded
        if prof is not None:
            prof.phase("link_traversal", _t)

        if obs is not None:
            obs.alloc_cycle(
                self.id,
                now,
                va_requests=len(va_items),
                va_grants=len(granted_now),
                sa_nonspec_requests=len(ns_items),
                sa_spec_requests=len(sp_items),
                sa_nonspec_grants=result.grant_counts()[0],
                sa_spec_wins=self.speculative_wins - wins0,
                sa_spec_kills=self.misspeculations - miss0,
            )

    def _allocation_step_reference(self, network: "Network", now: int) -> None:
        """Dense allocation cycle -- the original implementation, kept
        as the equivalence oracle for the fast kernel (only the busy-set
        bookkeeping, shared with the fast path, uses flat indices)."""
        P, V = self.num_ports, self.num_vcs
        part = self.partition
        va_req = self._va_requests
        ns_req = self._ns_requests
        sp_req = self._sp_requests

        if not self._busy:
            return

        obs = self.observer
        if obs is not None:
            wins0 = self.speculative_wins
            miss0 = self.misspeculations
        prof = self.profiler

        fs = self.fault_state
        if fs is not None:
            # Link faults active this cycle: mask the affected output
            # ports at both the request-generation level (below) and
            # inside the switch allocator (backstop).
            blocked = fs.blocked_ports(self.id, now)
            self.sw_alloc.fault_mask = blocked
            stuck = self._stuck_by_port
        else:
            blocked = None
            stuck = None

        any_va = False
        any_ns = False
        any_sp = False
        waiting: List[Tuple[int, int]] = []
        touched: List[Tuple[int, int]] = []
        for pv in self._busy:
            p, v = self._pv_pairs[pv]
            ivc = self.input_vcs[p][v]
            front = ivc.queue[0]
            if ivc.output_vc >= 0:
                # Active: bid non-speculatively if a credit exists.
                if blocked is not None and ivc.output_port in blocked:
                    assert fs is not None  # blocked ports imply fault state
                    fs.counters["link_blocked_requests"] += 1
                    continue  # link down: the flit waits in place
                if self.credits[ivc.output_port][ivc.output_vc] > 0:
                    ns_req[p][v] = ivc.output_port
                    any_ns = True
                    touched.append((p, v))
                elif obs is not None:
                    obs.credit_stall(self.id, ivc.output_port, ivc.output_vc)
            elif front.is_head:
                if front.out_port < 0:
                    # Non-lookahead pipeline: this cycle is the routing
                    # stage; VA/SA requests start next cycle.
                    if prof is not None:
                        _t = prof.begin()
                        front.out_port = self.route_fn(network, self, front.packet)
                        prof.phase("routing", _t)
                    else:
                        front.out_port = self.route_fn(network, self, front.packet)
                    continue
                # Waiting for VC allocation: request free legal VCs
                # at the routed output port, and bid speculatively.
                q = front.out_port
                if blocked is not None and q in blocked:
                    assert fs is not None  # blocked ports imply fault state
                    fs.counters["link_blocked_requests"] += 1
                    continue  # link down: don't bid for a VC there yet
                pkt = front.packet
                holders = self.output_holder[q]
                cands = tuple(
                    u
                    for u in part.class_vcs(pkt.message_class, pkt.resource_class)
                    if holders[u] is None
                )
                if stuck is not None and cands:
                    stuck_here = stuck.get(q)
                    if stuck_here:
                        assert fs is not None  # stuck map implies fault state
                        kept = tuple(
                            u
                            for u in cands
                            if u not in stuck_here
                            or not fs.vc_stuck(self.id, q, u, now)
                        )
                        fs.counters["stuck_vc_masked"] += len(cands) - len(kept)
                        cands = kept
                if cands:
                    va_req[p * V + v] = VCRequest(q, cands)
                    waiting.append((p, v))
                    any_va = True
                    sp_req[p][v] = q
                    any_sp = True
                    touched.append((p, v))
                elif obs is not None:
                    obs.vc_starved(self.id, q)

        # VC allocation.
        va_grants: List[Optional[Tuple[int, int]]] = []
        if any_va:
            if prof is not None:
                _t = prof.begin()
                va_grants = self.vc_alloc.allocate(va_req)
                prof.phase("vc_alloc", _t)
            else:
                va_grants = self.vc_alloc.allocate(va_req)
            for p, v in waiting:
                va_req[p * V + v] = None  # reset the reusable buffer

        if not (any_ns or any_sp):
            return

        # Switch allocation (both speculative and non-speculative).
        result = self.sw_alloc.allocate(
            ns_req, sp_req, any_nonspec=any_ns, any_spec=any_sp
        )
        if obs is not None:
            ns_count = sum(1 for p, v in touched if ns_req[p][v] is not None)
            sp_count = len(touched) - ns_count
        # Reset the reusable request buffers for the next cycle.
        for p, v in touched:
            ns_req[p][v] = None
            sp_req[p][v] = None

        # Commit this cycle's VC grants.
        granted_now = {}
        if any_va:
            for p, v in waiting:
                g = va_grants[p * V + v]
                if g is not None:
                    q, u = g
                    ivc = self.input_vcs[p][v]
                    ivc.assign_output(q, u)
                    self.output_holder[q][u] = (p, v)
                    granted_now[(p, v)] = g
                    if obs is not None:
                        obs.vc_granted(self.id, p, v, ivc.queue[0], now)

        # Non-speculative switch winners depart.
        _t = prof.begin() if prof is not None else 0.0
        for p, g in enumerate(result.nonspec):
            if g is not None:
                v, q = g
                self._depart(network, now, p, v)

        # Speculative winners depart only if their VC allocation also
        # succeeded this cycle and the granted VC has a credit.
        for p, g in enumerate(result.spec):
            if g is None:
                continue
            v, q = g
            vag = granted_now.get((p, v))
            if vag is not None and vag[0] == q and self.credits[q][vag[1]] > 0:
                self.speculative_wins += 1
                self._depart(network, now, p, v)
            else:
                self.misspeculations += 1
        self.misspeculations += result.spec_discarded
        if prof is not None:
            prof.phase("link_traversal", _t)

        if obs is not None:
            obs.alloc_cycle(
                self.id,
                now,
                va_requests=len(waiting),
                va_grants=len(granted_now),
                sa_nonspec_requests=ns_count,
                sa_spec_requests=sp_count,
                sa_nonspec_grants=result.grant_counts()[0],
                sa_spec_wins=self.speculative_wins - wins0,
                sa_spec_kills=self.misspeculations - miss0,
            )

    # ------------------------------------------------------------------
    def _depart(self, network: "Network", now: int, p: int, v: int) -> None:
        """Send the front flit of input VC (p, v) through the crossbar.

        The buffer pop and event scheduling are inlined (rather than
        going through ``InputVC.pop_front`` / ``Network.schedule_*``):
        this runs once per flit per hop and the call overhead dominates
        the work.  Semantics are identical to those helpers.
        """
        pv = p * self.num_vcs + v
        ivc = self._ivc_flat[pv]
        q, u = ivc.output_port, ivc.output_vc
        queue = ivc.queue
        flit = queue.pop(0)
        if flit.is_tail:
            # Tail: the packet releases its input VC and output VC.
            ivc.output_port = -1
            ivc.output_vc = -1
            self.output_holder[q][u] = None
        if not queue:
            self._busy.discard(pv)
        self.switch_grants += 1
        self.port_flits[q] += 1

        # Consume a downstream credit.
        cr = self.credits[q]
        cr[u] -= 1
        assert cr[u] >= 0, "negative credits"

        # SA grant in cycle `now`, switch traversal in `now+1`, `latency`
        # cycles on the wire; the downstream buffer write makes the flit
        # eligible for allocation in `now + 2 + latency`.
        kind, neighbor, dest_port, latency = self.out_links[q]
        when = now + 2 + latency
        events = network._flit_events
        lst = events.get(when)
        if lst is None:
            events[when] = [(kind, neighbor, dest_port, u, flit)]
        else:
            lst.append((kind, neighbor, dest_port, u, flit))

        # The buffer slot frees at switch traversal (`now+1`); the credit
        # travels upstream and is usable one cycle after it lands.
        up = self.upstream[p]
        if up is not None:
            up_kind, up_obj, up_port, up_lat = up
            when = now + 2 + up_lat
            events = network._credit_events
            lst = events.get(when)
            if lst is None:
                events[when] = [(up_kind, up_obj, up_port, v)]
            else:
                lst.append((up_kind, up_obj, up_port, v))

        if self.observer is not None:
            self.observer.flit_departed(self.id, p, v, q, u, flit, now)

    # ------------------------------------------------------------------
    def buffer_occupancy(self, port: int) -> int:
        """Total buffered flits at one input port (UGAL congestion metric
        uses the credit view on the *output* side; this is for stats)."""
        return sum(ivc.occupancy for ivc in self.input_vcs[port])

    def output_queue_depth(self, port: int) -> int:
        """Credits consumed across the VCs of an output port -- the local
        congestion estimate used by UGAL-L."""
        return self.buffer_depth * self.num_vcs - sum(self.credits[port])
