"""Per-simulation fault runtime consulted by router/network hot paths.

A :class:`FaultState` is built once per run by
:meth:`FaultPlan.materialize` and attached via
``Network.attach_fault_state``.  It is pure lookup machinery: all
randomness happened at materialization, so every query is a
deterministic function of ``(plan, dimensions, cycle)`` -- which is
what makes fault-injected sweeps bit-identical between serial and
parallel execution.

Query cost is kept off the fault-free hot path entirely (call sites
guard on ``fault_state is None``) and cheap in fault mode:

* link-fault windows are sorted per (router, port) and scanned with a
  monotonic cursor (simulation time only moves forward);
* stuck VCs are precomputed into per-router ``{port: frozenset(vcs)}``
  maps and flat index sets for the allocator-level masks;
* credit faults are sorted queues per ``(router, port, vc)`` consumed
  at most one per arriving credit.

The state also owns the fault *counters* surfaced through
:mod:`repro.obs` (``fault_*`` instruments) and the run summary.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .plan import CreditFault, LinkFault, StuckVC

__all__ = ["FaultState"]


class _PortWindows:
    """Sorted fault windows for one (router, port) with a time cursor."""

    __slots__ = ("windows", "idx")

    def __init__(self, windows: List[Tuple[int, Optional[int]]]) -> None:
        self.windows = sorted(windows, key=lambda w: w[0])
        self.idx = 0

    def active(self, cycle: int) -> bool:
        w = self.windows
        i = self.idx
        while i < len(w) and w[i][1] is not None and w[i][1] <= cycle:
            i += 1
        self.idx = i
        return i < len(w) and w[i][0] <= cycle


class FaultState:
    """Materialized fault schedule + live counters for one simulation."""

    def __init__(
        self,
        link_faults: Iterable[LinkFault],
        stuck_vcs: Iterable[StuckVC],
        credit_faults: Iterable[CreditFault],
    ) -> None:
        self.link_faults: Tuple[LinkFault, ...] = tuple(link_faults)
        self.stuck_vcs: Tuple[StuckVC, ...] = tuple(stuck_vcs)
        self.credit_faults: Tuple[CreditFault, ...] = tuple(credit_faults)

        # (router, port) -> window cursor; router -> its faulted ports.
        self._windows: Dict[Tuple[int, int], _PortWindows] = {}
        grouped: Dict[Tuple[int, int], List[Tuple[int, Optional[int]]]] = {}
        for lf in self.link_faults:
            grouped.setdefault((lf.router, lf.port), []).append(
                (lf.start, lf.end)
            )
        for key, windows in grouped.items():
            self._windows[key] = _PortWindows(windows)
        self._router_fault_ports: Dict[int, List[int]] = {}
        for r, p in self._windows:
            self._router_fault_ports.setdefault(r, []).append(p)
        for ports in self._router_fault_ports.values():
            ports.sort()

        # router -> {port: {vc: start cycle}}.
        stuck_map: Dict[int, Dict[int, Dict[int, int]]] = {}
        for sv in self.stuck_vcs:
            port_map = stuck_map.setdefault(sv.router, {})
            vc_map = port_map.setdefault(sv.port, {})
            # Earliest start wins if the same VC is listed twice.
            vc_map[sv.vc] = min(vc_map.get(sv.vc, sv.start), sv.start)
        self._stuck_map = stuck_map

        # (router, port, vc) -> sorted [(cycle, kind), ...] with cursor.
        self._credit_queues: Dict[Tuple[int, int, int], List[Tuple[int, str]]] = {}
        for cf in self.credit_faults:
            self._credit_queues.setdefault(
                (cf.router, cf.port, cf.vc), []
            ).append((cf.cycle, cf.kind))
        for queue in self._credit_queues.values():
            queue.sort()
        self._credit_idx: Dict[Tuple[int, int, int], int] = {
            key: 0 for key in self._credit_queues
        }

        # Live counters (surfaced through repro.obs and diagnostics).
        self.counters: Dict[str, int] = {
            "link_blocked_requests": 0,
            "stuck_vc_masked": 0,
            "credits_dropped": 0,
            "credits_duplicated": 0,
            "credit_dups_absorbed": 0,
            "buffer_overflows": 0,
            "credit_overflows_absorbed": 0,
            # Fault-aware routing / graceful degradation.
            "escape_reroutes": 0,
            "packets_unroutable": 0,
            "watchdog_deferrals": 0,
            "watchdog_degraded_trips": 0,
        }

        self._permanent_links: FrozenSet[Tuple[int, int]] = frozenset(
            (lf.router, lf.port) for lf in self.link_faults if lf.end is None
        )
        self._transient_links: Tuple[LinkFault, ...] = tuple(
            lf for lf in self.link_faults if lf.end is not None
        )

    # ------------------------------------------------------------------
    # link faults
    # ------------------------------------------------------------------
    def blocked_ports(self, router_id: int, cycle: int) -> Optional[Set[int]]:
        """Output ports of ``router_id`` down at ``cycle`` (or None).

        ``cycle`` must be non-decreasing across calls for a given
        router (the per-cycle allocation loop guarantees this).
        """
        ports = self._router_fault_ports.get(router_id)
        if ports is None:
            return None
        blocked: Optional[Set[int]] = None
        for p in ports:
            if self._windows[(router_id, p)].active(cycle):
                if blocked is None:
                    blocked = set()
                blocked.add(p)
        return blocked

    # ------------------------------------------------------------------
    # stuck VCs
    # ------------------------------------------------------------------
    def stuck_by_port(self, router_id: int) -> Optional[Dict[int, FrozenSet[int]]]:
        """``{output port: frozenset(stuck vcs)}`` for one router.

        Conservative view: a VC is reported stuck regardless of its
        ``start`` cycle (starts are typically 0 or early; treating the
        whole run as stuck keeps the per-candidate check O(1)).  VCs
        with ``start > 0`` are activated exactly: the router re-checks
        via :meth:`vc_stuck` only for ports present in this map.
        """
        port_map = self._stuck_map.get(router_id)
        if not port_map:
            return None
        return {
            port: frozenset(vc_map) for port, vc_map in port_map.items()
        }

    def vc_stuck(self, router_id: int, port: int, vc: int, cycle: int) -> bool:
        start = self._stuck_map.get(router_id, {}).get(port, {}).get(vc)
        return start is not None and cycle >= start

    def stuck_flat(self, router_id: int, num_vcs: int) -> Optional[FrozenSet[int]]:
        """Flat ``port * V + vc`` indices of VCs stuck from cycle 0 (the
        static VC-allocator-level mask).

        Only ``start == 0`` faults qualify: the allocator mask is set
        once per run, so time-activated stuck VCs are enforced solely by
        the router's per-cycle candidate filtering (:meth:`vc_stuck`).
        """
        port_map = self._stuck_map.get(router_id)
        if not port_map:
            return None
        flat = frozenset(
            port * num_vcs + vc
            for port, vc_map in port_map.items()
            for vc, start in vc_map.items()
            if start == 0
        )
        return flat or None

    # ------------------------------------------------------------------
    # credit faults
    # ------------------------------------------------------------------
    def credit_event(
        self, router_id: int, port: int, vc: int, cycle: int
    ) -> Optional[str]:
        """Consume and return the pending fault for a credit arriving at
        ``(router, port, vc)`` at ``cycle``, if one is due."""
        key = (router_id, port, vc)
        queue = self._credit_queues.get(key)
        if queue is None:
            return None
        idx = self._credit_idx[key]
        if idx < len(queue) and queue[idx][0] <= cycle:
            self._credit_idx[key] = idx + 1
            return queue[idx][1]
        return None

    @property
    def has_credit_faults(self) -> bool:
        return bool(self._credit_queues)

    # ------------------------------------------------------------------
    # fault-aware routing / watchdog triage
    # ------------------------------------------------------------------
    def permanent_link_faults(self) -> FrozenSet[Tuple[int, int]]:
        """(router, port) pairs down forever (``end is None``) -- the
        pre-diagnosed fault set fault-aware routing detours around."""
        return self._permanent_links

    @property
    def has_permanent_link_faults(self) -> bool:
        return bool(self._permanent_links)

    def transient_link_fault_between(self, start: int, end: int) -> bool:
        """Any *transient* link fault active somewhere in ``[start, end]``?

        Used by the watchdog to distinguish a stall riding out a fault
        window from a genuine livelock/deadlock.  Diagnostics-only --
        does not advance the hot-path cursors.
        """
        for lf in self._transient_links:
            if lf.start <= end and start < lf.end:  # type: ignore[operator]
                return True
        return False

    def faulted_ports_by_router(self, cycle: int) -> Dict[int, List[int]]:
        """``{router: sorted ports down at cycle}`` for diagnostics."""
        out: Dict[int, List[int]] = {}
        for lf in self.link_faults:
            if lf.active(cycle):
                ports = out.setdefault(lf.router, [])
                if lf.port not in ports:
                    ports.append(lf.port)
        for ports in out.values():
            ports.sort()
        return out

    # ------------------------------------------------------------------
    def active_link_faults(self, cycle: int) -> List[Tuple[int, int]]:
        """(router, port) pairs down at ``cycle`` -- for diagnostics;
        does not advance the hot-path cursors."""
        return [
            (lf.router, lf.port)
            for lf in self.link_faults
            if lf.active(cycle)
        ]

    def summary(self) -> Dict[str, int]:
        """Schedule sizes + live counters (obs export, snapshots)."""
        out = {
            "link_fault_events": len(self.link_faults),
            "stuck_vc_events": len(self.stuck_vcs),
            "credit_fault_events": len(self.credit_faults),
        }
        out.update(self.counters)
        return out
